package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// ignoreEntry is one parsed //morclint:ignore comment.
type ignoreEntry struct {
	passes []string // pass names, or ["all"]
}

func (e ignoreEntry) covers(pass string) bool {
	for _, p := range e.passes {
		if p == pass || p == "all" {
			return true
		}
	}
	return false
}

// ignoreIndex maps file → line → allowlist entries. An entry on line L
// suppresses diagnostics on L and L+1, so the comment can sit at the end
// of the flagged line or alone on the line above it.
type ignoreIndex struct {
	entries   map[string]map[int][]ignoreEntry
	malformed []Diagnostic
}

const ignorePrefix = "//morclint:ignore"

// newIgnoreIndex scans every comment in the program's lint units
// (including test files, which the invariants pass can flag).
func newIgnoreIndex(prog *Program) *ignoreIndex {
	idx := &ignoreIndex{entries: map[string]map[int][]ignoreEntry{}}
	for _, u := range prog.Units {
		if !u.Lint {
			continue
		}
		for _, f := range append(append([]*ast.File(nil), u.Files...), u.TestFiles...) {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx.add(prog.Fset, c)
				}
			}
		}
	}
	return idx
}

func (idx *ignoreIndex) add(fset *token.FileSet, c *ast.Comment) {
	text := c.Text
	if !strings.HasPrefix(text, ignorePrefix) {
		return
	}
	pos := fset.Position(c.Pos())
	rest := strings.TrimPrefix(text, ignorePrefix)
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return // e.g. //morclint:ignoreXYZ — not ours
	}
	fields := strings.Fields(rest)
	// The pass list may be written with spaces after the commas
	// ("dettaint, lockhold"): a field ending in a comma keeps the list
	// open, so the following field still belongs to it. Whatever remains
	// after the list closes is the mandatory reason.
	var passList string
	reasonStart := 0
	for reasonStart < len(fields) {
		passList += fields[reasonStart]
		reasonStart++
		if !strings.HasSuffix(passList, ",") {
			break
		}
	}
	malformed := func(problem string) {
		idx.malformed = append(idx.malformed, Diagnostic{
			File: pos.Filename, Line: pos.Line, Col: pos.Column, Pass: "morclint",
			Message: "malformed ignore comment: " + problem,
		})
	}
	if passList == "" || reasonStart >= len(fields) {
		malformed("want //morclint:ignore <pass[,pass]> <reason>")
		return
	}
	// Names are checked against the whole suite, not the passes this
	// run selected: an allowlist entry for a pass that does not exist
	// (a typo, or a retired name) would otherwise suppress nothing in
	// silence.
	known := append(PassNames(AllPasses()), "all")
	entry := ignoreEntry{}
	for _, p := range strings.Split(passList, ",") {
		if p = strings.TrimSpace(p); p == "" {
			continue
		}
		if !slices.Contains(known, p) {
			malformed(fmt.Sprintf("no pass is named %q (passes: %s)", p, strings.Join(known, ", ")))
			return
		}
		entry.passes = append(entry.passes, p)
	}
	byLine := idx.entries[pos.Filename]
	if byLine == nil {
		byLine = map[int][]ignoreEntry{}
		idx.entries[pos.Filename] = byLine
	}
	byLine[pos.Line] = append(byLine[pos.Line], entry)
}

// suppressed reports whether a diagnostic of the given pass at pos is
// covered by an ignore comment on its line or the line above.
func (idx *ignoreIndex) suppressed(pass string, pos token.Position) bool {
	byLine := idx.entries[pos.Filename]
	if byLine == nil {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, e := range byLine[line] {
			if e.covers(pass) {
				return true
			}
		}
	}
	return false
}
