package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// envBlock describes the machine and build a result came from. Results
// are comparable only when every field but Commit matches.
type envBlock struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Race       bool   `json:"race"`
	Commit     string `json:"commit"`
}

func currentEnv() envBlock {
	return envBlock{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Race:       buildSetting("-race") == "true",
		Commit:     commit(),
	}
}

// diff names the first environment field that differs ("" if none).
func (e envBlock) diff(o envBlock) string {
	switch {
	case e.GOMAXPROCS != o.GOMAXPROCS:
		return "GOMAXPROCS differs"
	case e.NProc != o.NProc:
		return "nproc differs"
	case e.CPUModel != o.CPUModel:
		return "CPU model differs"
	case e.GoVersion != o.GoVersion:
		return "Go version differs"
	case e.OSArch != o.OSArch:
		return "OS/arch differs"
	case e.Race != o.Race:
		return "race detector setting differs"
	}
	return ""
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

// buildSetting returns one of the settings the binary was built with.
func buildSetting(key string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == key {
				return s.Value
			}
		}
	}
	return ""
}

// commit identifies the code under test: the VCS revision when the build
// recorded one, otherwise a digest of every Go source and go.mod file
// under the working directory (benchmark checkouts carry no .git).
func commit() string {
	if rev := buildSetting("vcs.revision"); rev != "" {
		return "git:" + rev
	}
	var files []string
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}
