package main

import (
	"bufio"
	"context"
	_ "embed"
	"errors"
	"fmt"
	"os/exec"
	"sort"
	"strings"
	"time"
)

//go:embed layers.txt
var layersTxt string

// layerRule maps every function whose name starts with prefix to layer.
type layerRule struct {
	prefix, layer string
}

// parseLayers reads the function -> layer map: one "<prefix> <layer>"
// pair per line, '#' comments and blank lines ignored.
func parseLayers(text string) ([]layerRule, error) {
	var rules []layerRule
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("layers line %d: want \"<prefix> <layer>\", got %q", n, line)
		}
		rules = append(rules, layerRule{prefix: f[0], layer: f[1]})
	}
	return rules, sc.Err()
}

// layerOf returns the layer of the first rule matching fn, or "".
func layerOf(rules []layerRule, fn string) string {
	for _, r := range rules {
		if strings.HasPrefix(fn, r.prefix) {
			return r.layer
		}
	}
	return ""
}

// topRow is one function of a `go tool pprof -top` listing.
type topRow struct {
	flat time.Duration
	fn   string
}

// parseTop reads the rows of a `go tool pprof -top` listing: after the
// "flat flat% sum% cum cum%" header, one function per line.
func parseTop(text string) ([]topRow, error) {
	var rows []topRow
	header := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !header {
			header = len(f) == 5 && f[0] == "flat" && f[4] == "cum%"
			continue
		}
		if len(f) == 0 {
			continue
		}
		if len(f) < 6 {
			return nil, fmt.Errorf("pprof -top: malformed row %q", line)
		}
		flat, err := time.ParseDuration(f[0])
		if f[0] == "0" {
			flat, err = 0, nil
		}
		if err != nil {
			return nil, fmt.Errorf("pprof -top: row %q: %w", line, err)
		}
		rows = append(rows, topRow{flat: flat, fn: f[5]})
	}
	if !header {
		return nil, fmt.Errorf("pprof -top: no header row")
	}
	return rows, nil
}

// fold sums flat time per layer as shares of the profile's total; the
// unmapped share is the part no rule matched.
func fold(rows []topRow, rules []layerRule) (shares map[string]float64, unmapped float64) {
	var total time.Duration
	byLayer := map[string]time.Duration{}
	for _, r := range rows {
		total += r.flat
		byLayer[layerOf(rules, r.fn)] += r.flat
	}
	shares = map[string]float64{}
	if total == 0 {
		return shares, 0
	}
	for l, d := range byLayer {
		if l != "" && d > 0 {
			shares[l] = d.Seconds() / total.Seconds()
		}
	}
	return shares, byLayer[""].Seconds() / total.Seconds()
}

// unmappedFunctions lists the functions no rule matched, costliest first,
// for the error a failed coverage check prints.
func unmappedFunctions(rows []topRow, rules []layerRule) []string {
	var miss []topRow
	for _, r := range rows {
		if r.flat > 0 && layerOf(rules, r.fn) == "" {
			miss = append(miss, r)
		}
	}
	sort.SliceStable(miss, func(i, j int) bool { return miss[i].flat > miss[j].flat })
	var out []string
	for _, r := range miss {
		out = append(out, fmt.Sprintf("%s %v", r.fn, r.flat))
	}
	return out
}

// pprofTop lists every function of a CPU profile with `go tool pprof`,
// which ships with Go. The profile carries its own symbols.
func pprofTop(profile string) (string, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-symbolize=none",
		"-nodecount=1000000", "-nodefraction=0", "-edgefraction=0", profile)
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			return "", fmt.Errorf("go tool pprof: %w: %s", err, ee.Stderr)
		}
		return "", fmt.Errorf("go tool pprof: %w", err)
	}
	return string(out), nil
}
