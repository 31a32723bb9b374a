package sp

// Test hooks for the external test package (expander_test.go compares
// lanes against difftest's map-backed reference, and difftest imports
// this package).

const MaxRetainedSlots = maxRetainedSlots

// TableSlots reports the size of the lane's label table.
func (e *Expander) TableSlots() int { return len(e.labels.slots) }

// SetTableEpoch puts the lane's label table at epoch, stamping every
// slot live-and-settled under it when fill is set — the worst leftovers a
// wrap can meet.
func (e *Expander) SetTableEpoch(epoch uint32, fill bool) {
	e.labels.epoch = epoch
	if fill {
		for i := range e.labels.slots {
			e.labels.slots[i].tag = epoch<<1 | settledBit
		}
	}
}

// TableEpoch reports the lane's label-table epoch.
func (e *Expander) TableEpoch() uint32 { return e.labels.epoch }
