package fault

import (
	"math"
	"strings"
	"testing"
)

func TestConfigEnabled(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want bool
	}{
		{"zero value", Config{}, false},
		{"seed only", Config{Seed: 7}, false},
		{"corrupt", Config{CorruptRate: 1e-4}, true},
		{"drop", Config{DropRate: 1e-4}, true},
		{"jitter", Config{JitterRate: 0.5}, true},
		{"stuck", Config{Stuck: []Stuck{{Heap: 1}}}, true},
	}
	for _, tc := range cases {
		if got := tc.cfg.Enabled(); got != tc.want {
			t.Errorf("%s: Enabled() = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantErr string // empty = valid
	}{
		{"zero value", Config{}, ""},
		{"full rates", Config{CorruptRate: 1, DropRate: 1, JitterRate: 1}, ""},
		{"corrupt rate above one", Config{CorruptRate: 1.5}, "corrupt rate"},
		{"negative drop rate", Config{DropRate: -0.1}, "drop rate"},
		{"negative retries", Config{MaxRetries: -1}, "negative protocol parameter"},
		{"retry budget at the int32 limit", Config{MaxRetries: math.MaxInt32}, ""},
		{"retry budget overflows the flit's attempt", Config{MaxRetries: math.MaxInt32 + 1}, "int32"},
		{"negative timeout", Config{RetryTimeoutPs: -1}, "negative protocol parameter"},
		{"valid stuck", Config{Stuck: []Stuck{{Tree: 7, Heap: 7, Port: 1, After: 3}}}, ""},
		{"stuck tree out of range", Config{Stuck: []Stuck{{Tree: 8, Heap: 1}}}, "tree 8"},
		{"stuck heap zero is the source", Config{Stuck: []Stuck{{Heap: 0}}}, "heap 0"},
		{"stuck bad port", Config{Stuck: []Stuck{{Heap: 1, Port: 2}}}, "port 2"},
		{"stuck negative trigger", Config{Stuck: []Stuck{{Heap: 1, After: -1}}}, "negative trigger"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate(8)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: validation accepted bad config", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestNormFillsDefaults(t *testing.T) {
	n := Config{}.Norm()
	if n.MaxRetries != DefaultMaxRetries || n.RetryTimeoutPs != DefaultRetryTimeoutPs ||
		n.MaxBackoffPs != DefaultMaxBackoffPs || n.AckDelayPs != DefaultAckDelayPs ||
		n.JitterMaxPs != DefaultJitterMaxPs {
		t.Errorf("Norm() left defaults unfilled: %+v", n)
	}
	custom := Config{MaxRetries: 5, RetryTimeoutPs: 10}.Norm()
	if custom.MaxRetries != 5 || custom.RetryTimeoutPs != 10 {
		t.Errorf("Norm() clobbered explicit values: %+v", custom)
	}
}

func TestBackoffLadder(t *testing.T) {
	cfg := Config{RetryTimeoutPs: 100, MaxBackoffPs: 350}.Norm()
	want := []int64{100, 200, 350, 350, 350}
	for i, w := range want {
		if got := cfg.BackoffPs(i + 1); got != w {
			t.Errorf("BackoffPs(%d) = %d, want %d", i+1, got, w)
		}
	}
}

// TestChannelStreamsDeterministic requires two injectors with the same
// config to hand out identical per-channel decision streams, and distinct
// channels of one injector to draw independently.
func TestChannelStreamsDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, CorruptRate: 0.3, DropRate: 0.3, JitterRate: 0.3}
	a, b := NewInjector(cfg), NewInjector(cfg)
	for ch := 0; ch < 4; ch++ {
		ca, cb := a.Channel(), b.Channel()
		for i := 0; i < 200; i++ {
			canDrop := i%3 != 0
			da, db := ca.Next(canDrop), cb.Next(canDrop)
			if da != db {
				t.Fatalf("channel %d draw %d: %+v vs %+v", ch, i, da, db)
			}
		}
	}
	if a.Stats != b.Stats {
		t.Errorf("stats diverged: %+v vs %+v", a.Stats, b.Stats)
	}
	if a.Stats.Injected == 0 {
		t.Error("no faults drawn at rate 0.3 over 800 traversals")
	}
}

// TestControlFlitsNeverDrop drives a channel at drop rate 1 and checks
// that only body flits (canDrop=true) are ever dropped.
func TestControlFlitsNeverDrop(t *testing.T) {
	in := NewInjector(Config{Seed: 1, DropRate: 1})
	cf := in.Channel()
	for i := 0; i < 100; i++ {
		if d := cf.Next(false); d.Drop {
			t.Fatal("control flit dropped")
		}
	}
	if d := cf.Next(true); !d.Drop {
		t.Error("body flit survived drop rate 1")
	}
}

func TestStuckWedgesAfterN(t *testing.T) {
	in := NewInjector(Config{Stuck: []Stuck{{Heap: 1}}})
	cf := in.Channel()
	cf.SetStuck(2)
	for i := 0; i < 2; i++ {
		if d := cf.Next(true); d.Stuck {
			t.Fatalf("wedged on traversal %d, want after 2", i+1)
		}
	}
	for i := 0; i < 3; i++ {
		if d := cf.Next(true); !d.Stuck {
			t.Fatal("channel recovered from a permanent wedge")
		}
	}
	if in.Stats.Swallowed != 3 {
		t.Errorf("Swallowed = %d, want 3", in.Stats.Swallowed)
	}
}

func TestViolationError(t *testing.T) {
	v := Violationf("fanin 3/2", "ack with no flit in flight (port %d)", 1)
	if got := v.Error(); got != "fanin 3/2: ack with no flit in flight (port 1)" {
		t.Errorf("Error() = %q", got)
	}
}
