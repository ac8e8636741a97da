package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// pyQuartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the report matches the acceptance check exactly.
func pyQuartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// steadiness runs k end-to-end runs of each workload, on seeds seed …
// seed+k-1, as child processes of this binary, and prints for every
// end-to-end metric its median, quartiles and quartile spread as a
// share of the median, against the bound in BENCHMARK.json (read from
// the working directory, the repository root).
func steadiness(names []string, k int, seed int64, seconds float64) error {
	bounds := map[string]float64{}
	if data, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var b struct {
			EndToEnd []struct {
				Name  string  `json:"name"`
				Bound float64 `json:"bound"`
			} `json:"end_to_end"`
		}
		if err := json.Unmarshal(data, &b); err != nil {
			return fmt.Errorf("BENCHMARK.json: %w", err)
		}
		for _, m := range b.EndToEnd {
			bounds[m.Name] = m.Bound
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, name := range names {
		if _, ok := lookup(name); !ok {
			return fmt.Errorf("unknown workload %q", name)
		}
		values := map[string][]float64{}
		for i := range k {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(s, 10),
				"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			var res result
			if err := json.Unmarshal(lastLine(out), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", name, s, err)
			}
			if !res.Correct || res.Failed > 0 {
				return fmt.Errorf("%s seed %d: %d of %d ops failed", name, s, res.Failed, res.Attempted)
			}
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", name, s, lastLine(out))
		}
		fmt.Printf("%s: %d runs, seeds %d..%d, %gs each\n", name, k, seed, seed+int64(k)-1, seconds)
		fmt.Printf("  %-20s %12s %12s %12s %8s %6s %s\n", "metric", "median", "q1", "q3", "spread", "bound", "")
		for _, def := range endToEnd {
			xs := values[def.name]
			if len(xs) == 0 {
				continue
			}
			med := median(xs)
			q1, q3 := pyQuartiles(xs)
			spread := (q3 - q1) / med
			verdict := ""
			if b, ok := bounds[def.name]; ok {
				verdict = "ok"
				if spread > b/3 {
					verdict = "WIDE (> bound/3)"
				}
			}
			fmt.Printf("  %-20s %12.6g %12.6g %12.6g %8.4f %6.3g %s\n", def.name, med, q1, q3, spread, bounds[def.name], verdict)
		}
	}
	return nil
}

func lastLine(out []byte) []byte {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = slices.Clone(sc.Bytes())
		}
	}
	return last
}
