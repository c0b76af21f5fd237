package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro"
)

// canonical is a Result's canonical wire form: the JSON a grid worker
// returns and the store keeps.
func canonical(r repro.Result) ([]byte, error) { return json.Marshal(r) }

// resultsSHA hashes the canonical Results of a pass in job order, so two
// passes — or two commits — that simulate identically print the same
// digest.
func resultsSHA(results []repro.Result) (string, error) {
	h := sha256.New()
	for _, r := range results {
		b, err := canonical(r)
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// combineSHA digests the per-replica digests of a run, in replica order.
func combineSHA(shas []string) string {
	h := sha256.New()
	for _, s := range shas {
		h.Write([]byte(s + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// tally counts job outcomes for failed_frac and the result line.
type tally struct {
	attempted int
	failed    int
	problems  []string
}

// fail records one failed or incorrect job (or a whole-pass check that
// failed, counted as its job count).
func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if len(t.problems) < 20 {
		t.problems = append(t.problems, fmt.Sprintf(format, args...))
	}
}

// checkPass gates one pass: the batch must not fail, and every job must
// commit its measured budget. The simulator retires whole commit groups,
// so a run stops in the cycle that reaches N: N ≤ Committed < N + commit
// width. It returns the pass digest.
func (t *tally) checkPass(label string, jobs []repro.Job, results []repro.Result, err error) string {
	t.attempted += len(jobs)
	if err != nil {
		t.fail(len(jobs), "%s: batch failed: %v", label, err)
		return ""
	}
	for i, r := range results {
		j := jobs[i]
		if c := r.Metrics.Committed; c < j.N || c >= j.N+uint64(j.EffectiveConfig().CommitWidth) {
			t.fail(1, "%s: job %s committed %d uops, want %d plus less than one commit group", label, j.Label(), c, j.N)
		}
	}
	sha, err := resultsSHA(results)
	if err != nil {
		t.fail(len(jobs), "%s: encoding results: %v", label, err)
	}
	return sha
}

// sameSHA requires a pass to reproduce the run's first digest: the
// simulator is deterministic, so any difference is a wrong result.
func (t *tally) sameSHA(label string, want *string, got string, jobs int) {
	switch {
	case got == "":
	case *want == "":
		*want = got
	case got != *want:
		t.fail(jobs, "%s: results_sha256 %s differs from the run's first pass %s", label, got, *want)
	}
}

// host is the fingerprint printed with every result.
type host struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
}

func fingerprint() host {
	h := host{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS + "/" + runtime.GOARCH}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
