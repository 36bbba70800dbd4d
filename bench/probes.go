package lcmperf

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runProbes runs the probes program for the layers this workload stresses
// and merges what it prints.  The program is optional: where it is absent
// or fails, the reason goes to standard error and its metrics stay 0.
func runProbes(o Options, seconds float64, vals map[string]float64) {
	if o.Probes == "" {
		fmt.Fprintln(os.Stderr, "lcmperf: no probes program; unit-cost metrics read 0")
		return
	}
	cmd := exec.Command(o.Probes,
		"-workload", o.Workload.Name,
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-seed", strconv.FormatUint(o.Seed, 10),
		"-scale", strconv.Itoa(o.Workload.Scale),
		"-p", strconv.Itoa(o.P))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(hostProcs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var got map[string]float64
	if err == nil {
		err = json.Unmarshal(out, &got)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcmperf: probes:", err)
		return
	}
	for _, p := range ProbeDefs {
		if v, ok := got[p.Name]; ok {
			vals[p.Name] = v
		}
	}
}
