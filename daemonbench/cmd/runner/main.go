// Command runner is the end-to-end benchmark of the cardestd daemon. It
// starts the daemon built from the tree under test as a child process,
// drives POST /v1/estimate over loopback TCP from one closed-loop client
// connection, checks every answer, and prints each metric by name and unit.
// The last line of its output is one JSON object with the keys correct,
// attempted, failed and metrics.
//
// It depends on the daemon only through its flags and HTTP API, and on the
// program's packages only to build the table and label queries; the checks
// that need the program's layers run in the companion inproc binary.
//
// Usage (run.sh builds both binaries and the daemon first):
//
//	runner -bin DIR --workload NAME --seed N --seconds S --trace 0|1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"qfe/daemonbench/wire"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string // checkout root: the daemon's source tree
	bin      string // directory holding the cardestd and inproc binaries
	// rows and train, when set, shrink the daemon's table and training
	// set (-rows, -train); the benchmark's own tests use them.
	rows, train int
	// setups is how many times the daemon is started to time set-up.
	setups int
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]wire.Metric `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding cardestd and inproc")
	flag.Parse()
	o.trace = trace == 1
	o.setups = 3
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "runner:", err)
		os.Exit(1)
	}
	o.root = wd
	if o.bin, err = filepath.Abs(o.bin); err != nil {
		fmt.Fprintln(os.Stderr, "runner:", err)
		os.Exit(1)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "runner:", err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// checks collects named pass/fail verdicts and prints each as it lands.
type checks struct {
	out    io.Writer
	failed []string
}

func (c *checks) check(name string, ok bool, format string, args ...any) {
	detail := fmt.Sprintf(format, args...)
	if ok {
		fmt.Fprintf(c.out, "check %-30s ok    %s\n", name, detail)
		return
	}
	fmt.Fprintf(c.out, "check %-30s FAIL  %s\n", name, detail)
	c.failed = append(c.failed, name)
}

// writeJSON writes v to path.
func writeJSON(path string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
