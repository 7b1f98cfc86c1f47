package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strings"
	"time"
)

// The benchmark's host is shared: over minutes its speed drifts by up to
// a third, which moves every wall and CPU time together (README.md shows
// a 22% spread of raw run medians across ten runs). A timed run
// therefore also times a fixed calibration kernel beside its
// repetitions and reports each time rescaled to a nominal host speed:
//
//	reported = measured * calibNominal / median(calibration times)
//
// The kernel is the benchmark's own code on the standard library only,
// and it runs in a child process, so no change to the repository's
// program, not even to what it leaves on the heap, can move it. Raw
// times stay in the result file.

// calibNominal is the kernel's typical time, in seconds, on the two-core
// host README.md's baselines come from. It only sets the scale.
const calibNominal = 0.2

var calibSink uint64

// calibrate times the kernel once in a child process (vgbench
// -calibrate) and returns the time the child measured.
func calibrate() (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out, err := exec.CommandContext(ctx, exe, "-calibrate").Output()
	if err != nil {
		return 0, fmt.Errorf("calibration: %w", err)
	}
	return time.ParseDuration(strings.TrimSpace(string(out)))
}

// kernel runs the calibration kernel once and returns its wall time. It
// mixes what the experiments do: random access over a working set larger
// than the last-level cache, sorting, map inserts, and many small heap
// objects.
func kernel() time.Duration {
	t0 := time.Now()
	buf := make([]uint64, 1<<22)
	x := uint64(12345)
	for i := 0; i < 8_000_000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		buf[x>>42] += x
	}
	r := rand.New(rand.NewSource(1))
	s := make([]int, 400_000)
	for i := range s {
		s[i] = r.Int()
	}
	sort.Ints(s)
	m := make(map[int]int)
	for i := 0; i < 200_000; i++ {
		m[s[i]] = i
	}
	type node struct {
		next *node
		v    [4]int
	}
	var head *node
	for i := 0; i < 300_000; i++ {
		head = &node{next: head, v: [4]int{i}}
	}
	calibSink += x + uint64(len(m)) + uint64(head.v[0])
	return time.Since(t0)
}
