// Command dlabench is the DLA benchmark of record. It starts a four-node
// DLA cluster in-process over TCP loopback with durable (fsync-always)
// journals, drives one named workload generated from a seed, checks
// every result against a plaintext oracle, and prints its metrics.
//
//	dlabench --workload ingest|audit --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end metrics; with --trace 1 they are the per-layer metrics
// of a traced run. The line before it carries provenance, sample counts
// and the failure share. See README.md for the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("dlabench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var cfg config
	var traceFlag int
	var root string
	fl.StringVar(&cfg.workload, "workload", "", "workload name: ingest or audit")
	fl.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fl.IntVar(&cfg.seconds, "seconds", 45, "run length in seconds")
	fl.IntVar(&traceFlag, "trace", 0, "1 for the traced per-layer run")
	fl.StringVar(&root, "root", ".", "repository checkout the benchmark runs in")
	fl.StringVar(&cfg.workDir, "work", ".bench_build", "scratch directory inside the checkout")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "dlabench: --trace must be 0 or 1")
		return 2
	}
	if cfg.seconds < 1 {
		fmt.Fprintln(stderr, "dlabench: --seconds must be at least 1")
		return 2
	}
	cfg.trace = traceFlag == 1
	cfg.workDir = filepath.Join(cfg.workDir, fmt.Sprintf("run-%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "dlabench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.workDir) //nolint:errcheck // scratch space

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "dlabench:", err)
		if errors.Is(err, errInvalid) {
			return 3
		}
		return 1
	}
	if !finite(res.metrics) {
		fmt.Fprintf(stderr, "dlabench: a metric is not a number: %v\n", res.metrics)
		return 1
	}
	res.detail["provenance"] = provenance(cfg, root)
	units := endToEndUnits
	if cfg.trace {
		units = perLayerUnits
	}

	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]metric{}
	for name, v := range res.metrics {
		out[name] = metric{Value: v, Unit: units[name]}
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"detail": res.detail}); err != nil {
		fmt.Fprintln(stderr, "dlabench:", err)
		return 1
	}
	if err := enc.Encode(map[string]any{
		"correct":   res.failed == 0 && res.lostAcks == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	}); err != nil {
		fmt.Fprintln(stderr, "dlabench:", err)
		return 1
	}
	return 0
}

// provenance records what produced a result.
func provenance(cfg config, root string) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"commit":     commitOf(root),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"data_fs":    fsType(cfg.workDir),
		"fsync":      "always",
		"transport":  "tcp-loopback",
		"nodes":      4,
	}
}

// commitOf names the code under test: the git commit when the checkout
// is a repository, otherwise a digest of its Go sources.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s\x00%d\x00", path, len(data))
			h.Write(data)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x9123683E: "btrfs", 0x65735546: "fuse", 0x6a656a63: "virtiofs", 0x2fc12fc1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
