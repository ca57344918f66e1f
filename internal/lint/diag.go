package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one analyzer finding. ID is stable and suppressable;
// Analyzer is the producing analyzer's name (also accepted as a
// suppression key, matching all of the analyzer's IDs).
type Diagnostic struct {
	Analyzer string
	ID       string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.ID, d.Message)
}

// Analyzer is one project-invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Program) []Diagnostic
}

// ignoreDirective is one parsed //lint:ignore or //lint:file-ignore
// comment.
type ignoreDirective struct {
	id     string
	reason string
	file   bool // file-ignore: covers the whole file
	pos    token.Position
	// lines the directive covers (its own line and the line following its
	// comment group); unused for file-ignore.
	lines [2]int
}

const (
	ignorePrefix     = "//lint:ignore "
	fileIgnorePrefix = "//lint:file-ignore "
	txgcPrefix       = "//txgc:"
)

// scanDirectives collects //txgc: annotations and //lint: suppressions
// from one package's syntax.
func (prog *Program) scanDirectives(p *Package) {
	if p.Info == nil {
		return
	}
	for _, file := range p.Files {
		fname := prog.Fset.Position(file.Pos()).Filename
		for _, cg := range file.Comments {
			endLine := prog.Fset.Position(cg.End()).Line
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				switch {
				case strings.HasPrefix(text, "//lint:ignore") || strings.HasPrefix(text, "//lint:file-ignore"):
					prog.scanIgnore(fname, c, text, endLine)
				case strings.HasPrefix(text, txgcPrefix):
					prog.checkTxgcSpelling(c, text)
				}
			}
		}
		// Annotations attach to declarations, so resolve them off the AST
		// rather than the flat comment list.
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if hasDirective(d.Doc, "//txgc:hotpath") {
					if fn, ok := p.Info.Defs[d.Name].(*types.Func); ok {
						prog.Hotpath = append(prog.Hotpath, fn)
					}
				}
			case *ast.GenDecl:
				prog.scanOwnedFields(p, d)
			}
		}
	}
}

// scanIgnore parses one suppression comment. A suppression must explain
// itself: a directive without a reason is a diagnostic, not a suppression.
func (prog *Program) scanIgnore(fname string, c *ast.Comment, text string, groupEnd int) {
	rest, file := strings.CutPrefix(text, fileIgnorePrefix)
	if !file {
		rest, _ = strings.CutPrefix(text, ignorePrefix)
	}
	pos := prog.Position(c.Pos())
	id, reason, _ := strings.Cut(strings.TrimSpace(rest), " ")
	reason = strings.TrimSpace(reason)
	if id == "" || text == strings.TrimSuffix(ignorePrefix, " ") || text == strings.TrimSuffix(fileIgnorePrefix, " ") {
		prog.badDirs = append(prog.badDirs, Diagnostic{
			Analyzer: "lint", ID: "suppress-noreason", Pos: pos,
			Message: "suppression names no diagnostic ID (want //lint:ignore <id> <reason>)",
		})
		return
	}
	if reason == "" {
		prog.badDirs = append(prog.badDirs, Diagnostic{
			Analyzer: "lint", ID: "suppress-noreason", Pos: pos,
			Message: fmt.Sprintf("suppression of %q gives no reason — an unexplained suppression is itself a violation", id),
		})
		return
	}
	prog.ignores[fname] = append(prog.ignores[fname], ignoreDirective{
		id: id, reason: reason, file: file, pos: pos,
		lines: [2]int{pos.Line, groupEnd + 1},
	})
}

// checkTxgcSpelling rejects unknown //txgc: annotation verbs so a typo
// (`//txgc:hotpat`) fails loudly instead of silently un-annotating.
func (prog *Program) checkTxgcSpelling(c *ast.Comment, text string) {
	body := strings.TrimPrefix(text, txgcPrefix)
	verb, _, _ := strings.Cut(body, " ")
	switch verb {
	case "hotpath", "owner":
	default:
		prog.badDirs = append(prog.badDirs, Diagnostic{
			Analyzer: "lint", ID: "annotation", Pos: prog.Position(c.Pos()),
			Message: fmt.Sprintf("unknown annotation //txgc:%s (known: hotpath, owner)", verb),
		})
	}
}

// scanOwnedFields finds struct fields annotated //txgc:owner shard inside
// a type declaration.
func (prog *Program) scanOwnedFields(p *Package, d *ast.GenDecl) {
	if d.Tok != token.TYPE {
		return
	}
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			continue
		}
		named, _ := p.Info.Defs[ts.Name].Type().(*types.Named)
		for _, field := range st.Fields.List {
			owner, pos, ok := ownerDirective(field)
			if !ok {
				continue
			}
			if owner != "shard" {
				prog.badDirs = append(prog.badDirs, Diagnostic{
					Analyzer: "lint", ID: "annotation", Pos: prog.Position(pos),
					Message: fmt.Sprintf("unknown owner %q (known: shard — the runner inside the struct's run method)", owner),
				})
				continue
			}
			for _, name := range field.Names {
				if v, ok := p.Info.Defs[name].(*types.Var); ok {
					prog.Owned = append(prog.Owned, OwnedField{Pkg: p, Obj: v, Struct: named, Pos: name.Pos()})
				}
			}
		}
	}
}

// ownerDirective extracts `//txgc:owner <who>` from a field's doc or
// trailing comment.
func ownerDirective(f *ast.Field) (owner string, pos token.Pos, ok bool) {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(c.Text)
			if rest, found := strings.CutPrefix(text, "//txgc:owner"); found {
				owner, _, _ = strings.Cut(strings.TrimSpace(rest), " ")
				return owner, c.Pos(), true
			}
		}
	}
	return "", token.NoPos, false
}

func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		t := strings.TrimSpace(c.Text)
		if t == directive || strings.HasPrefix(t, directive+" ") {
			return true
		}
	}
	return false
}

// suppressed reports whether a directive in d's file covers d.
func (prog *Program) suppressed(d Diagnostic) bool {
	var full string
	for f := range prog.ignores {
		if prog.Rel(f) == d.Pos.Filename || f == d.Pos.Filename {
			full = f
			break
		}
	}
	if full == "" {
		return false
	}
	for _, dir := range prog.ignores[full] {
		if dir.id != d.ID && dir.id != d.Analyzer {
			continue
		}
		if dir.file || dir.lines[0] == d.Pos.Line || dir.lines[1] == d.Pos.Line {
			return true
		}
	}
	return false
}

// Run executes the analyzers, applies suppressions, and returns the
// surviving diagnostics sorted by position. Malformed directives
// (reason-less suppressions, unknown annotations) are appended as
// diagnostics and are never themselves suppressable.
func Run(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		for _, d := range a.Run(prog) {
			if d.Analyzer == "" {
				d.Analyzer = a.Name
			}
			if !prog.suppressed(d) {
				out = append(out, d)
			}
		}
	}
	out = append(out, prog.badDirs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return out
}
