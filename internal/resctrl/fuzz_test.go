package resctrl

import (
	"errors"
	"reflect"
	"testing"
)

// FuzzParseSchemata feeds arbitrary text to the schemata parser, which
// reads files a kernel (or anything posing as one) wrote. The parser
// must never panic, must tag every rejection with ErrMalformedSchemata,
// and whatever it accepts must survive Format→Parse unchanged. The seed
// corpus lives in testdata/fuzz/FuzzParseSchemata and runs under plain
// go test; `make fuzz` explores beyond it.
func FuzzParseSchemata(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSchemata(text)
		if err != nil {
			if !errors.Is(err, ErrMalformedSchemata) {
				t.Fatalf("ParseSchemata(%q) error %v does not wrap ErrMalformedSchemata", text, err)
			}
			return
		}
		formatted := s.Format()
		again, err := ParseSchemata(formatted)
		if err != nil {
			t.Fatalf("ParseSchemata(%q) accepted, but its Format %q is rejected: %v", text, formatted, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("round trip of %q changed the schemata:\nparsed    %#v\nreparsed  %#v", text, s, again)
		}
	})
}
