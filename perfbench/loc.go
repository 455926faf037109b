package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// printLOC prints the production Go line count of every internal/ package
// under root (test files excluded), as a baseline for simplification work.
// It is information, not a gated metric.
func printLOC(root string) {
	dirs, err := filepath.Glob(filepath.Join(root, "internal", "*"))
	if err != nil || len(dirs) == 0 {
		fmt.Println("production LOC: internal/ not found")
		return
	}
	sort.Strings(dirs)
	type pkg struct {
		name  string
		lines int
	}
	var pkgs []pkg
	total := 0
	for _, d := range dirs {
		files, _ := filepath.Glob(filepath.Join(d, "*.go"))
		n := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			n += countLines(f)
		}
		if n > 0 {
			pkgs = append(pkgs, pkg{filepath.Base(d), n})
			total += n
		}
	}
	fmt.Printf("production LOC (information, not gated): total %d\n", total)
	for _, p := range pkgs {
		fmt.Printf("  loc internal/%-11s %6d\n", p.name, p.lines)
	}
}

func countLines(path string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		n++
	}
	return n
}
