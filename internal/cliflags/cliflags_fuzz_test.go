package cliflags

import (
	"fmt"
	"testing"
)

// FuzzParseTopology: the -topology parser must never panic, and any
// selection it accepts is well formed and parses back from its canonical
// spelling.
func FuzzParseTopology(f *testing.F) {
	for _, seed := range []string{"", "mot", "mesh:4x4", "chiplet:2x2", "mesh:0x4", "mesh:4", "chiplet:-1x2", "bogus", "mesh:4x4x4", "mesh: 4x4"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sel, err := ParseTopology(s)
		if err != nil {
			return
		}
		canonical := "mot"
		switch sel.Kind {
		case "mot":
			if sel.W != 0 || sel.H != 0 {
				t.Fatalf("ParseTopology(%q) = %+v: mot with dimensions", s, sel)
			}
		case "mesh", "chiplet":
			if sel.W < 1 || sel.H < 1 {
				t.Fatalf("ParseTopology(%q) = %+v: non-positive dimensions", s, sel)
			}
			canonical = fmt.Sprintf("%s:%dx%d", sel.Kind, sel.W, sel.H)
		default:
			t.Fatalf("ParseTopology(%q) = %+v: unknown kind", s, sel)
		}
		if again, err := ParseTopology(canonical); err != nil || again != sel {
			t.Fatalf("ParseTopology(%q) = %+v does not round-trip through %q: %+v, %v", s, sel, canonical, again, err)
		}
	})
}
