package obs

// Accessors the trace tests read a recorded tree through; the server
// reads it through Trace.Report and Trace.Dur.

// Attr returns the value of an attribute and whether it is present.
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// Children returns the span's direct children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.children
}

// Spans returns the completed spans in completion order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	out := make([]Span, len(t.done))
	for i, sp := range t.done {
		out[i] = *sp
	}
	return out
}
