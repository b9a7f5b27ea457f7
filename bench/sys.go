package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// cpuNS returns the process's user+system CPU time so far.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMiB reads the process's high-water resident set (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// env is the run environment embedded in every result file.
type env struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func readEnv() env {
	e := env{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(b))
	}
	if c := headCommit(".git"); c != "" {
		e.Commit = c
	}
	return e
}

// headCommit resolves HEAD of the git directory by reading its files; the
// driver's checkout is not a git repository and reports "unknown".
func headCommit(gitDir string) string {
	b, err := os.ReadFile(gitDir + "/HEAD")
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(b))
	ref, ok := strings.CutPrefix(head, "ref: ")
	if !ok {
		return head
	}
	if b, err := os.ReadFile(gitDir + "/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(gitDir + "/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, ok := strings.CutSuffix(line, " "+ref); ok {
				return sha
			}
		}
	}
	return ""
}

// runtimeSnap is the Go runtime's own account of allocation and collection.
type runtimeSnap struct {
	mallocs uint64
	gcs     uint32
	pauseNS uint64
}

func readRuntime() runtimeSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return runtimeSnap{m.Mallocs, m.NumGC, m.PauseTotalNs}
}

// layers emits the runtime metrics for the region since prev.
func (s runtimeSnap) layers(r *result, prev runtimeSnap, ops int64) {
	r.layer("runtime.allocs_per_op", ratio(int64(s.mallocs-prev.mallocs), ops))
	r.layer("runtime.gc_cycles", float64(s.gcs-prev.gcs))
	r.layer("runtime.gc_pause_total_ms", float64(s.pauseNS-prev.pauseNS)/1e6)
	r.layer("runtime.gomaxprocs", float64(runtime.GOMAXPROCS(0)))
}
