package lint

import (
	"go/token"
	"strings"
)

// A directive is one parsed `//lint:ignore hpelint/<name> reason` comment.
// It suppresses diagnostics from exactly the named analyzer on exactly the
// next source line of the same file — narrow on purpose, so a suppression
// can never quietly swallow a new, unrelated finding added nearby.
type directive struct {
	analyzer string // analyzer name without the hpelint/ prefix
	pos      token.Position
	used     bool
}

const directivePrefix = "//lint:ignore "

// ignoreAnalyzerName is the pseudo-analyzer under which directive problems
// (malformed, unknown analyzer, unused) are reported. It is not itself
// suppressible: a broken suppression must always surface.
const ignoreAnalyzerName = "ignore"

// collectDirectives parses suppression directives from every file of the
// program. Malformed directives are reported immediately as diagnostics.
func collectDirectives(prog *Program, known map[string]bool) ([]*directive, []Diagnostic) {
	var dirs []*directive
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, directivePrefix) {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					if name, problem := parseDirective(c.Text, known); problem != "" {
						diags = append(diags, Diagnostic{Analyzer: ignoreAnalyzerName, Pos: pos, Message: problem})
					} else {
						dirs = append(dirs, &directive{analyzer: name, pos: pos})
					}
				}
			}
		}
	}
	return dirs, diags
}

// parseDirective parses one //lint:ignore comment into the analyzer name
// it suppresses, or the problem that makes it invalid.
func parseDirective(text string, known map[string]bool) (analyzer, problem string) {
	// Harness affordance: a fixture directive may carry its own
	// `// want ...` annotation; that tail is not part of the reason.
	if i := strings.Index(text, "// want "); i > 0 {
		text = strings.TrimSpace(text[:i])
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, directivePrefix))
	name, reason, _ := strings.Cut(rest, " ")
	short := strings.TrimPrefix(name, "hpelint/")
	switch {
	case !strings.HasPrefix(name, "hpelint/"):
		return "", "malformed //lint:ignore: analyzer must be named hpelint/<name>"
	case strings.TrimSpace(reason) == "":
		return "", "//lint:ignore " + name + " needs a reason: say why the invariant does not apply here"
	case !known[short]:
		return "", "//lint:ignore names unknown analyzer " + name
	}
	return short, ""
}

// applyDirectives drops diagnostics suppressed by a directive (same file,
// directive line + 1, matching analyzer) and reports every directive that
// suppressed nothing — an unused ignore is stale documentation at best and
// a silently disarmed check at worst.
func applyDirectives(diags []Diagnostic, dirs []*directive) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		suppressed := false
		for _, dir := range dirs {
			if dir.analyzer == d.Analyzer &&
				dir.pos.Filename == d.Pos.Filename &&
				dir.pos.Line+1 == d.Pos.Line {
				dir.used = true
				suppressed = true
			}
		}
		if !suppressed {
			out = append(out, d)
		}
	}
	for _, dir := range dirs {
		if !dir.used {
			out = append(out, Diagnostic{
				Analyzer: ignoreAnalyzerName, Pos: dir.pos,
				Message: "unused //lint:ignore directive for hpelint/" + dir.analyzer +
					": nothing on the next line triggers it",
			})
		}
	}
	return out
}
