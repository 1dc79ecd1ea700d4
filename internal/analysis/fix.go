package analysis

import (
	"fmt"
	"go/token"
	"os"
	"sort"
	"strings"
)

// A TextEdit is one machine-applicable replacement of a byte range in a
// file: the half-open span [Start, End) is replaced with New. An
// insertion has Start == End.
type TextEdit struct {
	File  string `json:"file"`
	Start int    `json:"start"` // byte offset
	End   int    `json:"end"`   // byte offset, exclusive
	New   string `json:"new"`
}

// A SuggestedFix is one self-contained remediation for a diagnostic: a
// short imperative message and the edits that implement it. Fixes must be
// conservative — applying one removes the diagnostic without changing
// behavior (sorted-keys loops, missing encode lines) or records an
// explicit reviewable waiver (directive stubs).
type SuggestedFix struct {
	Message string     `json:"message"`
	Edits   []TextEdit `json:"edits"`
}

// edit converts a position pair into a TextEdit against the pass's
// FileSet.
func (p *Pass) edit(from, to token.Pos, text string) TextEdit {
	start := p.Fset.Position(from)
	end := p.Fset.Position(to)
	return TextEdit{File: start.Filename, Start: start.Offset, End: end.Offset, New: text}
}

// sourceFile returns the raw bytes of a file of the analyzed program,
// memoized program-wide. Fix builders use it to replicate indentation and
// splice original statement text; a read failure degrades to "no fix",
// never to a bad edit.
func (p *Pass) sourceFile(filename string) []byte {
	key := "source:" + filename
	v := p.Prog.Fact(key, func() any {
		data, err := os.ReadFile(filename)
		if err != nil {
			return []byte(nil)
		}
		return data
	})
	return v.([]byte)
}

// lineStart returns the byte offset of the start of the line holding pos,
// and the line's leading whitespace, read from the original source.
func (p *Pass) lineStart(pos token.Pos) (int, string, bool) {
	position := p.Fset.Position(pos)
	src := p.sourceFile(position.Filename)
	if src == nil || position.Offset > len(src) {
		return 0, "", false
	}
	start := position.Offset - (position.Column - 1)
	if start < 0 || start > len(src) {
		return 0, "", false
	}
	indent := src[start:]
	n := 0
	for n < len(indent) && (indent[n] == ' ' || indent[n] == '\t') {
		n++
	}
	return start, string(indent[:n]), true
}

// directiveStubFix builds the "record a reviewable waiver" fix: a
// //psbox:allow-<analyzer> line with a TODO reason inserted directly
// above the offending line, indented to match. The TODO reason satisfies
// the directive grammar (a reason is present) while flagging itself for
// review.
func (p *Pass) directiveStubFix(pos token.Pos) []SuggestedFix {
	start, indent, ok := p.lineStart(pos)
	if !ok {
		return nil
	}
	position := p.Fset.Position(pos)
	line := fmt.Sprintf("%s//psbox:allow-%s TODO: justify this exception\n", indent, p.Analyzer.Name)
	return []SuggestedFix{{
		Message: fmt.Sprintf("add a reasoned //psbox:allow-%s directive", p.Analyzer.Name),
		Edits:   []TextEdit{{File: position.Filename, Start: start, End: start, New: line}},
	}}
}

// Report records a finding with optional suggested fixes unless an allow
// directive covers it.
func (p *Pass) Report(pos token.Pos, msg string, fixes ...SuggestedFix) {
	if p.allowed(pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  msg,
		Fixes:    fixes,
	})
}

// Fixes flattens the suggested fixes of a diagnostic set in order.
func Fixes(diags []Diagnostic) []SuggestedFix {
	var out []SuggestedFix
	for _, d := range diags {
		out = append(out, d.Fixes...)
	}
	return out
}

// ApplyFixes computes the result of applying every suggested fix of diags
// to the affected files. Edits are deduplicated (two analyzers proposing
// the identical edit collapse to one) and applied in deterministic file
// and offset order; of two distinct overlapping edits the earlier-sorted
// one wins and the loser is dropped with a note. Returns the new content
// of each changed file and human-readable notes about dropped edits.
func ApplyFixes(diags []Diagnostic, read func(string) ([]byte, error)) (map[string][]byte, []string, error) {
	byFile := make(map[string][]TextEdit)
	for _, fix := range Fixes(diags) {
		for _, e := range fix.Edits {
			byFile[e.File] = append(byFile[e.File], e)
		}
	}
	var files []string
	for f := range byFile {
		files = append(files, f)
	}
	sort.Strings(files)

	out := make(map[string][]byte, len(byFile))
	var notes []string
	for _, f := range files {
		edits := byFile[f]
		sort.Slice(edits, func(i, j int) bool {
			a, b := edits[i], edits[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			if a.End != b.End {
				return a.End < b.End
			}
			return a.New < b.New
		})
		// Dedupe identical edits, then drop overlaps.
		applied := edits[:0]
		for _, e := range edits {
			if n := len(applied); n > 0 {
				prev := applied[n-1]
				if prev == e {
					continue
				}
				if e.Start < prev.End || (e.Start == prev.Start && prev.Start == prev.End && e.Start == e.End) {
					notes = append(notes, fmt.Sprintf("%s: dropped edit at %d-%d overlapping an earlier fix", f, e.Start, e.End))
					continue
				}
			}
			applied = append(applied, e)
		}
		src, err := read(f)
		if err != nil {
			return nil, nil, fmt.Errorf("applying fixes: %w", err)
		}
		var buf []byte
		last := 0
		bad := false
		for _, e := range applied {
			if e.Start < last || e.End > len(src) || e.Start > e.End {
				notes = append(notes, fmt.Sprintf("%s: dropped edit at %d-%d outside the file", f, e.Start, e.End))
				bad = true
				continue
			}
			buf = append(buf, src[last:e.Start]...)
			buf = append(buf, e.New...)
			last = e.End
		}
		buf = append(buf, src[last:]...)
		_ = bad
		if string(buf) != string(src) {
			out[f] = buf
		}
	}
	return out, notes, nil
}

// UnifiedDiff renders a line-based unified diff between two versions of
// one file, with the conventional ---/+++ header. Deterministic for fixed
// inputs; returns "" when the contents match.
func UnifiedDiff(name string, oldSrc, newSrc []byte) string {
	if string(oldSrc) == string(newSrc) {
		return ""
	}
	a := splitLines(string(oldSrc))
	b := splitLines(string(newSrc))

	// LCS table over lines.
	n, m := len(a), len(b)
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}

	type op struct {
		kind byte // ' ', '-', '+'
		line string
	}
	var ops []op
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case a[i] == b[j]:
			ops = append(ops, op{' ', a[i]})
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			ops = append(ops, op{'-', a[i]})
			i++
		default:
			ops = append(ops, op{'+', b[j]})
			j++
		}
	}
	for ; i < n; i++ {
		ops = append(ops, op{'-', a[i]})
	}
	for ; j < m; j++ {
		ops = append(ops, op{'+', b[j]})
	}

	// Group into hunks with up to 3 context lines.
	const ctx = 3
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- %s\n+++ %s\n", name, name)
	k := 0
	oldLine, newLine := 1, 1
	for k < len(ops) {
		if ops[k].kind == ' ' {
			oldLine++
			newLine++
			k++
			continue
		}
		// Hunk start: back up for context.
		start := k
		lead := 0
		for start > 0 && lead < ctx && ops[start-1].kind == ' ' {
			start--
			lead++
		}
		// Extend to cover changes separated by <= 2*ctx context lines.
		end := k
		gap := 0
		for end < len(ops) {
			if ops[end].kind == ' ' {
				gap++
				if gap > 2*ctx {
					break
				}
			} else {
				gap = 0
			}
			end++
		}
		// Trim trailing context beyond ctx lines.
		trail := 0
		for end > 0 && ops[end-1].kind == ' ' {
			trail++
			end--
		}
		if trail > ctx {
			trail = ctx
		}
		end += trail

		hunkOldStart := oldLine - lead
		hunkNewStart := newLine - lead
		oldCount, newCount := 0, 0
		for _, o := range ops[start:end] {
			switch o.kind {
			case ' ':
				oldCount++
				newCount++
			case '-':
				oldCount++
			case '+':
				newCount++
			}
		}
		fmt.Fprintf(&sb, "@@ -%d,%d +%d,%d @@\n", hunkOldStart, oldCount, hunkNewStart, newCount)
		for _, o := range ops[start:end] {
			sb.WriteByte(o.kind)
			sb.WriteString(o.line)
			sb.WriteByte('\n')
			switch o.kind {
			case ' ':
				oldLine++
				newLine++
			case '-':
				oldLine++
			case '+':
				newLine++
			}
		}
		k = end
	}
	return sb.String()
}

func splitLines(s string) []string {
	s = strings.TrimSuffix(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}
