package sp

import (
	"testing"

	"fannr/internal/graph"
)

// FuzzExpanderTable drives a labelTable with the only operations a lane
// performs on it — slot (find-or-insert, growing), find, a write through
// the returned label, reset — against a Go map, starting near the epoch
// wrap so long inputs cross it. Each op is three bytes: kind, and a
// 16-bit node id narrow enough to collide and wide enough to grow.
func FuzzExpanderTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1, 1, 0, 1, 3, 0, 0, 1, 0, 1})
	grow := make([]byte, 0, 3*200)
	for i := 0; i < 200; i++ {
		grow = append(grow, 0, byte(i), byte(i>>3))
	}
	f.Add(append(grow, 3, 0, 0, 0, 5, 0, 3, 0, 0, 2, 5, 0, 3, 0, 0, 1, 5, 0, 0, 5, 0)) // three resets: across the wrap
	f.Fuzz(func(t *testing.T, ops []byte) {
		type ref struct {
			dist    float64
			settled bool
		}
		var tab labelTable
		tab.epoch = 1<<31 - 3
		want := map[graph.NodeID]ref{}
		for i := 0; i+2 < len(ops); i += 3 {
			v := graph.NodeID(ops[i+1]) | graph.NodeID(ops[i+2])<<8
			switch ops[i] % 4 {
			case 0, 2: // slot, then relax or settle through the label
				l, fresh := tab.slot(v)
				w, had := want[v]
				if fresh == had {
					t.Fatalf("op %d: slot(%d) fresh = %v, map has it = %v", i/3, v, fresh, had)
				}
				if l.node != v || l.dist != w.dist || (l.tag&settledBit != 0) != w.settled {
					t.Fatalf("op %d: slot(%d) = %+v, want %+v", i/3, v, *l, w)
				}
				if ops[i]%4 == 0 {
					l.dist, w.dist = float64(i), float64(i)
				} else {
					l.tag |= settledBit
					w.settled = true
				}
				want[v] = w
			case 1: // find
				l := tab.find(v)
				w, had := want[v]
				if (l != nil) != had {
					t.Fatalf("op %d: find(%d) found = %v, map has it = %v", i/3, v, l != nil, had)
				}
				if had && (l.node != v || l.dist != w.dist || (l.tag&settledBit != 0) != w.settled) {
					t.Fatalf("op %d: find(%d) = %+v, want %+v", i/3, v, *l, w)
				}
			case 3: // reset
				tab.reset()
				clear(want)
			}
			if tab.live != len(want) {
				t.Fatalf("op %d: %d live labels, map holds %d", i/3, tab.live, len(want))
			}
			if n := len(tab.slots); n&(n-1) != 0 || 4*tab.live > 3*n {
				t.Fatalf("op %d: %d live labels in %d slots", i/3, tab.live, n)
			}
		}
		for v, w := range want {
			if l := tab.find(v); l == nil || l.dist != w.dist || (l.tag&settledBit != 0) != w.settled {
				t.Fatalf("final: find(%d) = %v, want %+v", v, l, w)
			}
		}
	})
}
