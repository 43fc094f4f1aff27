package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// envStamp identifies where and on what code a result was measured.
// Results are comparable only when every field but Commit matches:
// comparing runs across different CPU counts or toolchains measures the
// environment, not the change.
type envStamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func (e envStamp) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s", e.NProc, e.GOMAXPROCS, e.CPU, e.Go, e.Commit)
}

// mismatch lists the environment fields on which two stamps differ.
func (e envStamp) mismatch(o envStamp) []string {
	var diff []string
	if e.NProc != o.NProc {
		diff = append(diff, fmt.Sprintf("nproc %d vs %d", e.NProc, o.NProc))
	}
	if e.GOMAXPROCS != o.GOMAXPROCS {
		diff = append(diff, fmt.Sprintf("gomaxprocs %d vs %d", e.GOMAXPROCS, o.GOMAXPROCS))
	}
	if e.CPU != o.CPU {
		diff = append(diff, fmt.Sprintf("cpu %q vs %q", e.CPU, o.CPU))
	}
	if e.Go != o.Go {
		diff = append(diff, fmt.Sprintf("go %s vs %s", e.Go, o.Go))
	}
	return diff
}

func stamp() envStamp {
	return envStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     commit(),
	}
}

// cpuModel reads the first "model name" from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the git revision the binary was built from when the build
// recorded one, and otherwise "tree:" and a digest of the Go sources
// under the working directory, which identifies an exported checkout.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:12]
}

// savedResult is a run's result file: the stamp and the JSON result.
type savedResult struct {
	Env    envStamp   `json:"env"`
	Result jsonResult `json:"result"`
}

func saveResult(path string, env envStamp, res jsonResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(savedResult{Env: env, Result: res}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func loadResult(path string) (savedResult, error) {
	var s savedResult
	data, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compareMain implements "perfbench compare A B": it prints each metric
// of two saved results side by side, and refuses (exit 2) when their
// environments differ.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare A.json B.json")
		return 2
	}
	a, err := loadResult(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b, err := loadResult(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("A: %s\nB: %s\n", a.Env, b.Env)
	if diff := a.Env.mismatch(b.Env); len(diff) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: environments differ (%s); refusing to compare: rerun both sides on one machine\n", strings.Join(diff, "; "))
		return 2
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for n := range a.Result.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		ma := a.Result.Metrics[n]
		mb, ok := b.Result.Metrics[n]
		if !ok {
			fmt.Printf("  %-34s %14.6g %-6s  (missing in B)\n", n, ma.Value, ma.Unit)
			continue
		}
		fmt.Printf("  %-34s %14.6g %14.6g %-6s  B/A=%.4f\n", n, ma.Value, mb.Value, ma.Unit, ratio(mb.Value, ma.Value))
	}
	return 0
}
