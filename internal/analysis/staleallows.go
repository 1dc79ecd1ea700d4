package analysis

import (
	"bytes"
	"fmt"
)

// StaleAllows reports //psbox:allow-* directives that no longer suppress
// any diagnostic. A waiver is a standing debt: when the offending code is
// later fixed or deleted, the directive left behind silently pre-approves
// a future regression at that site. This check runs the debt ledger the
// other direction — every directive must still be paying for something.
//
// Staleness is only meaningful after the whole suite has run against the
// same package: a directive is "used" when it suppressed at least one
// finding during this run — for allow-snapshotstate, a field the
// Encoder-taking methods really miss. StaleAllows must
// therefore be appended LAST to the analyzer list, and only alongside the
// full suite — running it after a single analyzer would flag every other
// analyzer's legitimate directives. Directives with no reason or naming
// no analyzer never reach it: the directive scanner reports those.
var StaleAllows = &Analyzer{
	Name: "staleallows",
	Doc: `flag //psbox:allow-* directives that suppressed no finding in a
full-suite run; the suggested fix deletes the dead directive. Must run
last, after every analyzer it audits.`,
	Run: runStaleAllows,
}

func runStaleAllows(pass *Pass) {
	for _, f := range pass.Files {
		filename := pass.Fset.Position(f.Pos()).Filename
		fd := pass.directives[filename]
		if fd == nil {
			continue
		}
		for _, e := range fd.entries {
			if e.used {
				continue
			}
			pass.Report(e.pos,
				fmt.Sprintf("//psbox:allow-%s directive suppresses nothing; remove it", e.name),
				pass.deleteDirectiveFix(e)...)
		}
	}
}

// deleteDirectiveFix builds the edit removing a stale directive: the whole
// line when the comment stands alone, just the comment text when it trails
// code on a shared line.
func (p *Pass) deleteDirectiveFix(e *directiveEntry) []SuggestedFix {
	start, indent, ok := p.lineStart(e.pos)
	if !ok {
		return nil
	}
	position := p.Fset.Position(e.pos)
	src := p.sourceFile(position.Filename)
	from, to := position.Offset, p.Fset.Position(e.end).Offset
	if position.Column-1 == len(indent) {
		// The directive owns its line: delete it entirely, newline included.
		from = start
		if nl := bytes.IndexByte(src[to:], '\n'); nl >= 0 {
			to += nl + 1
		}
	} else {
		// Trailing comment: strip it and the spaces separating it from code.
		for from > 0 && (src[from-1] == ' ' || src[from-1] == '\t') {
			from--
		}
	}
	if to > len(src) {
		return nil
	}
	return []SuggestedFix{{
		Message: "delete the stale directive",
		Edits:   []TextEdit{{File: position.Filename, Start: from, End: to, New: ""}},
	}}
}
