package packet

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzParseDests: the destination parser must never panic, and any set
// it accepts is non-empty, in range, has one member per listed entry,
// and parses back from its own member list.
func FuzzParseDests(f *testing.F) {
	for _, seed := range []string{"0", "0,3,5", " 1 , 2 ", "63", "5,3,0", "", "1,1", "-1", "64", "1,,2", "+3", "0x1"} {
		f.Add(seed, uint8(8))
	}
	f.Fuzz(func(t *testing.T, s string, size uint8) {
		n := int(size)%66 - 1 // includes sizes the parser rejects
		set, err := ParseDestSet(s, n)
		if err != nil {
			return
		}
		if set.Empty() {
			t.Fatalf("ParseDestSet(%q, %d) accepted an empty set", s, n)
		}
		if extra := set &^ Range(0, n); !extra.Empty() {
			t.Fatalf("ParseDestSet(%q, %d) accepted %v outside [0,%d)", s, n, extra, n)
		}
		if got, want := set.Count(), len(strings.Split(s, ",")); got != want {
			t.Fatalf("ParseDestSet(%q, %d) = %v: %d members from %d entries", s, n, set, got, want)
		}
		var members []string
		for _, d := range set.Members() {
			members = append(members, strconv.Itoa(d))
		}
		again, err := ParseDestSet(strings.Join(members, ","), n)
		if err != nil || again != set {
			t.Fatalf("ParseDestSet(%q, %d) = %v does not round-trip: %v, %v", s, n, set, again, err)
		}
	})
}
