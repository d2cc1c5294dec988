package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// Host identifies the machine a result was measured on. Two results with
// different fingerprints are not comparable: the committed serve rows of
// earlier rounds came from a 1-core host and read as regressions on a
// 2-core one.
type Host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
}

func fingerprint() Host {
	return Host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Kernel:     kernel(),
	}
}

func (h Host) String() string {
	return fmt.Sprintf("GOMAXPROCS=%d nproc=%d cpu=%q go=%s kernel=%s",
		h.GOMAXPROCS, h.NumCPU, h.CPU, h.Go, h.Kernel)
}

// cpuModel reads the first "model name" of /proc/cpuinfo; hosts without it
// report "unknown", which still compares equal only to itself.
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

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}
