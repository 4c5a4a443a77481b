package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// hostMeta describes the machine a result came from, so numbers from
// differently sized hosts are never compared unawares.
func hostMeta() map[string]any {
	llc, llcLevel := llcBytes()
	return map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"llc_bytes":  llc,
		"llc_level":  llcLevel,
	}
}

// cpuTimes returns the host's total and stolen CPU time so far, in clock
// ticks, from the aggregate line of /proc/stat. On a virtual machine, steal
// is time the hypervisor gave this machine's CPUs to others; a run with
// much of it is slowed by its neighbours, not by the program.
func cpuTimes() (total, steal int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for _, v := range f[1:9] { // user … steal; guest time is counted in user
		n, _ := strconv.ParseInt(v, 10, 64)
		total += n
	}
	steal, _ = strconv.ParseInt(f[8], 10, 64)
	return total, steal
}

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

// llcBytes returns the size and level of CPU 0's last-level cache, or
// zeros when sysfs does not describe it.
func llcBytes() (int64, int) {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	var size int64
	level := 0
	for _, d := range dirs {
		lv, err1 := readInt(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil || lv < level {
			continue
		}
		s := strings.TrimSpace(string(sz))
		mult := int64(1)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			continue
		}
		level, size = lv, n*mult
	}
	return size, level
}

func readInt(path string) (int, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(strings.TrimSpace(string(b)))
}
