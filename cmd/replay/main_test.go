package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"asyncnoc/internal/cliflags/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, "replay", main) }

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "sched.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseScheduleValid(t *testing.T) {
	path := writeTemp(t, "0.0,2,5\n1.5,0,1,4,6\n")
	sched, err := parseSchedule(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sched) != 2 {
		t.Fatalf("got %d injections, want 2", len(sched))
	}
	if sched[0].Src != 2 || !sched[0].Dests.Has(5) {
		t.Errorf("row 1 parsed as %+v", sched[0])
	}
	if sched[1].At != 1500 {
		t.Errorf("row 2 time %v ps, want 1500", sched[1].At)
	}
	if got := sched[1].Dests.Members(); len(got) != 3 {
		t.Errorf("row 2 dests %v, want 3 members", got)
	}
}

func TestParseScheduleRejectsCorruptInput(t *testing.T) {
	cases := []struct {
		name, content, wantErr string
	}{
		{"truncated row", "0.0,2\n", "truncated"},
		{"bad time", "abc,2,5\n", "bad time"},
		{"negative time", "-1,2,5\n", "negative time"},
		{"bad source", "0,x,5\n", "bad source"},
		{"source out of range", "0,8,5\n", "outside [0,8)"},
		{"bad destination", "0,2,5x\n", "bad destination"},
		{"destination out of range", "0,2,64\n", "outside [0,8)"},
		{"empty file", "", "empty schedule"},
		{"unbalanced quotes", "0.0,2,\"5\n", "malformed CSV"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeTemp(t, tc.content)
			_, err := parseSchedule(path, 8)
			if err == nil {
				t.Fatalf("parse accepted %q", tc.content)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseScheduleMissingFile(t *testing.T) {
	if _, err := parseSchedule(filepath.Join(t.TempDir(), "nope.csv"), 8); err == nil {
		t.Fatal("expected error for missing file")
	}
}

// TestTopologyRejectsUnsupportedFlags: a mesh, which has one
// architecture and no die radix, rejects -network and -n by name and
// replays without them; a chiplet composition, which has no flat
// terminal space, fails its replay.
func TestTopologyRejectsUnsupportedFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string // "" = accepted
	}{
		{[]string{"-topology", "mesh:4x4", "-network", "Baseline"}, "replay: -topology mesh:4x4 does not support -network\n"},
		{[]string{"-topology", "mesh:4x4", "-n", "32"}, "replay: -topology mesh:4x4 does not support -n\n"},
		{[]string{"-topology", "mesh:4x4"}, ""},
		{[]string{"-topology", "chiplet:2x2", "-n", "4"}, "replay: core: schedule replay does not support chiplet composition"},
	} {
		args := append(c.args, "-file", filepath.Join("testdata", "mesh4x4.csv"))
		stderr, code := clitest.Run(t, args...)
		switch {
		case c.want == "":
			if code != 0 {
				t.Errorf("%v: exit %d, stderr %q", args, code, stderr)
			}
		case code == 0 || !strings.Contains(stderr, c.want):
			t.Errorf("%v: exit %d, stderr %q, want a failure with %q", args, code, stderr, c.want)
		}
	}
}
