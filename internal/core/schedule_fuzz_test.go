package core

import (
	"strings"
	"testing"
)

// FuzzParseSchedule: the replay parser must never panic, and any
// schedule it accepts must pass Validate for the same network size
// (acceptance implies a replayable schedule).
func FuzzParseSchedule(f *testing.F) {
	for _, seed := range []string{
		"0.0,2,5\n1.5,0,1,4,6\n",
		"0,0,1\n",
		"0.0,2\n",
		"-1,2,5\n",
		"NaN,1,2\n",
		"1e300,1,2\n",
		"0,2,\"4,5\"\n",
		"0.0,2,\"5\n",
		"",
	} {
		f.Add(seed, uint8(8))
	}
	f.Fuzz(func(t *testing.T, data string, size uint8) {
		n := int(size)%66 - 1 // includes sizes the destination parser rejects
		sched, err := ParseSchedule(strings.NewReader(data), "fuzz", n)
		if err != nil {
			return
		}
		if err := sched.Validate(n); err != nil {
			t.Fatalf("accepted schedule fails Validate(%d): %v\ninput: %q", n, err, data)
		}
	})
}
