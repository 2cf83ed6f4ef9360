// Package vcd writes IEEE 1364 Value Change Dump files, the standard
// waveform interchange format of EDA tooling. The network simulator can
// dump its handshake activity (request toggles, throttles, deliveries)
// as a VCD for inspection in any waveform viewer.
package vcd

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"asyncnoc/internal/sim"
)

// Var is one declared wire.
type Var struct {
	w     *Writer
	id    string
	scope string
	name  string
	width int
	last  uint64
	init  bool
}

// Writer emits a VCD stream. Declare all variables, call Begin, then set
// values at monotonically non-decreasing timestamps, and Close.
type Writer struct {
	out     *bufio.Writer
	vars    []*Var
	nextID  int
	began   bool
	curTime sim.Time
	timeSet bool
	err     error
}

// NewWriter wraps w; the VCD timescale is 1 ps, matching the simulator.
func NewWriter(w io.Writer) *Writer {
	return &Writer{out: bufio.NewWriter(w)}
}

// idCode converts a variable index to a VCD identifier (printable ASCII
// 33..126, little-endian base-94).
func idCode(n int) string {
	var b []byte
	for {
		b = append(b, byte(33+n%94))
		n = n/94 - 1
		if n < 0 {
			break
		}
	}
	return string(b)
}

// AddWire declares a wire in the given scope before Begin. Width 1 wires
// dump as scalars, wider ones as binary vectors.
func (w *Writer) AddWire(scope, name string, width int) *Var {
	if w.began {
		panic("vcd: AddWire after Begin")
	}
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("vcd: width %d out of [1,64]", width))
	}
	v := &Var{w: w, id: idCode(w.nextID), scope: scope, name: name, width: width}
	w.nextID++
	w.vars = append(w.vars, v)
	return v
}

// Begin writes the header and variable definitions.
func (w *Writer) Begin() error {
	if w.began {
		return nil
	}
	w.began = true
	w.printf("$timescale 1ps $end\n")
	// Group variables by scope, in first-appearance order.
	scopes := map[string][]*Var{}
	var order []string
	for _, v := range w.vars {
		if _, ok := scopes[v.scope]; !ok {
			order = append(order, v.scope)
		}
		scopes[v.scope] = append(scopes[v.scope], v)
	}
	sort.Strings(order)
	for _, scope := range order {
		w.printf("$scope module %s $end\n", scope)
		for _, v := range scopes[scope] {
			w.printf("$var wire %d %s %s $end\n", v.width, v.id, v.name)
		}
		w.printf("$upscope $end\n")
	}
	w.printf("$enddefinitions $end\n")
	w.printf("$dumpvars\n")
	for _, v := range w.vars {
		w.emit(v, 0)
		v.init = true
	}
	w.printf("$end\n")
	return w.err
}

// SetTime advances the dump clock. Going backwards is an error (events
// must be dumped in simulation order).
func (w *Writer) SetTime(t sim.Time) error {
	if !w.began {
		return fmt.Errorf("vcd: SetTime before Begin")
	}
	if w.timeSet && t < w.curTime {
		return fmt.Errorf("vcd: time moved backwards (%v after %v)", t, w.curTime)
	}
	if !w.timeSet || t > w.curTime {
		w.printf("#%d\n", int64(t))
	}
	w.curTime = t
	w.timeSet = true
	return w.err
}

// Set records a value change for the variable at the current time.
// Unchanged values are suppressed.
func (v *Var) Set(val uint64) {
	if v.init && v.last == val {
		return
	}
	v.w.emit(v, val)
	v.init = true
}

// Toggle flips a 1-bit variable.
func (v *Var) Toggle() { v.Set(v.last ^ 1) }

func (w *Writer) emit(v *Var, val uint64) {
	v.last = val
	if v.width == 1 {
		w.printf("%d%s\n", val&1, v.id)
		return
	}
	w.printf("b%b %s\n", val, v.id)
}

// Err returns the first error the writer has seen (nil if none): dump
// loops can poll it to abort early instead of formatting megabytes of
// value changes into a dead stream.
func (w *Writer) Err() error { return w.err }

// Close flushes the stream and returns the FIRST error of the writer's
// lifetime. A format-time error latched by printf takes precedence over
// (and is not masked by) a flush error, so intermediate Set/Begin
// failures are never silently swallowed.
func (w *Writer) Close() error {
	if err := w.out.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

func (w *Writer) printf(format string, args ...any) {
	if w.err != nil {
		return
	}
	if _, err := fmt.Fprintf(w.out, format, args...); err != nil {
		w.err = err
	}
}
