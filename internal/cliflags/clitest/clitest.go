// Package clitest runs a command's main in a child copy of its test
// binary, so a test can check how the real command parses its flags,
// what it reports on stderr and how it exits.
package clitest

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// mainEnv makes the test binary run the command's main with the
// arguments after "--" instead of the tests.
const mainEnv = "ASYNCNOC_CLITEST_MAIN"

// Main is a command's TestMain: in a child started by Run it runs main
// as the command name, otherwise the tests.
func Main(m *testing.M, name string, main func()) {
	if os.Getenv(mainEnv) == "1" {
		for i, arg := range os.Args {
			if arg == "--" {
				os.Args = append([]string{name}, os.Args[i+1:]...)
				break
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run runs the command with args in a child process and returns its
// stderr and exit code.
func Run(t testing.TB, args ...string) (stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=^$", "--"}, args...)...)
	cmd.Env = append(os.Environ(), mainEnv+"=1")
	var buf strings.Builder
	cmd.Stderr = &buf
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return buf.String(), cmd.ProcessState.ExitCode()
}
