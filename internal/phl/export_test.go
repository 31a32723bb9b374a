package phl

import (
	"fmt"
	"io"

	"fannr/internal/binio"
)

// Read deserializes a v4 index from a stream onto the heap, with the
// checks of a heap Load: the tests' way to feed the decoder bytes that
// never touched a file.
func Read(r io.Reader) (*Index, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("phl: reading stream: %w", err)
	}
	sf, err := binio.ParseSections(data, magic)
	if err != nil {
		return nil, fmt.Errorf("phl: %w", err)
	}
	if err := sf.VerifySections(); err != nil {
		return nil, fmt.Errorf("phl: verifying index: %w", err)
	}
	return fromSections(sf, true)
}
