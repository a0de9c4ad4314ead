package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// This file is the field-coverage engine behind keycover and resetcover.
// Both provers oblige every field reachable from a root struct type to be
// covered by an annotated function, or to carry a reasoned exemption at
// its declaration. The engine owns what the two share: one index of the
// module's struct types (named and embedded fields, json tags, the rule's
// exemption directive), one breadth-first walk of the tracked types that
// carries the declaration chain, one resolver from a selector to the
// fields it selects, and one helper that marks a type and everything
// beneath it as covered wholesale. Each rule supplies only what it counts
// as covering a field.

// coverField is one struct field as seen at its declaration. Embedded
// fields are included under their implicit name.
type coverField struct {
	name     string
	pos      token.Pos
	exported bool
	jsonSkip bool // tagged `json:"-"`
	exempt   bool // carries the rule's exemption directive with a reason
	// structKey is the type key of the field's (unwrapped) struct type
	// when it is declared in this module, else "".
	structKey string
}

// coverType is one module-declared struct type, keyed by
// "<pkg path>.<type name>". String keys make matching robust across
// packages: the same type seen through different import instantiations
// compares equal.
type coverType struct {
	key     string
	display string // "pkg.Type" using the package name
	fields  []*coverField
}

// coverIndex indexes every struct type declared in the module for one
// coverage rule.
type coverIndex struct {
	structs    map[string]*coverType
	modulePkgs map[string]bool
}

// newCoverIndex indexes the module's struct types, reading the rule's
// field-exemption directive (`//tlavet:keyexempt <reason>`) at each
// declaration. Like //tlavet:allow, a reasonless exemption is reported
// and exempts nothing.
func newCoverIndex(mp *ModulePass, exemptDirective string) *coverIndex {
	ix := &coverIndex{structs: make(map[string]*coverType), modulePkgs: make(map[string]bool)}
	for _, p := range mp.Module.Pkgs {
		ix.modulePkgs[p.Path] = true
	}
	for _, pkg := range mp.Module.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					if st, ok := ts.Type.(*ast.StructType); ok {
						ix.add(mp, pkg, ts.Name.Name, st, exemptDirective)
					}
				}
			}
		}
	}
	return ix
}

// add indexes one struct type declaration.
func (ix *coverIndex) add(mp *ModulePass, pkg *Package, name string, st *ast.StructType, exemptDirective string) {
	t := &coverType{key: pkg.Path + "." + name, display: pkg.Types.Name() + "." + name}
	for _, field := range st.Fields.List {
		proto := coverField{
			jsonSkip: fieldJSONSkip(field),
			exempt:   fieldExemption(mp, field, exemptDirective),
		}
		if ft, ok := pkg.TypeOfExpr(field.Type); ok {
			proto.structKey = ix.keyOf(ft)
		}
		names := field.Names
		if len(names) == 0 {
			// Embedded field: named after its (unwrapped) type.
			name := embeddedFieldName(field.Type)
			if name == "" {
				continue
			}
			names = []*ast.Ident{{Name: name, NamePos: field.Type.Pos()}}
		}
		for _, id := range names {
			cf := proto
			cf.name, cf.pos, cf.exported = id.Name, id.Pos(), ast.IsExported(id.Name)
			t.fields = append(t.fields, &cf)
		}
	}
	ix.structs[t.key] = t
}

// fieldExemption reports whether a field's doc or line comment carries
// the given exemption directive with a reason.
func fieldExemption(mp *ModulePass, field *ast.Field, directive string) bool {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, directive)
			if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
				continue
			}
			if len(strings.Fields(rest)) == 0 {
				mp.Report(field.Pos(), strings.TrimPrefix(directive, "//tlavet:")+" directive has no reason",
					"write "+directive+" <reason> so exemptions stay auditable", nil)
				continue
			}
			return true
		}
	}
	return false
}

// fieldJSONSkip reports whether the field is tagged `json:"-"`.
func fieldJSONSkip(field *ast.Field) bool {
	if field.Tag == nil {
		return false
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return false
	}
	name, _, _ := strings.Cut(reflect.StructTag(raw).Get("json"), ",")
	return name == "-"
}

// embeddedFieldName derives the implicit field name of an embedded
// type: the final identifier of the (possibly pointered, possibly
// package-qualified, possibly instantiated) type expression.
func embeddedFieldName(expr ast.Expr) string {
	switch e := expr.(type) {
	case *ast.StarExpr:
		return embeddedFieldName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return embeddedFieldName(e.X)
	case *ast.IndexListExpr:
		return embeddedFieldName(e.X)
	}
	return ""
}

// keyOf unwraps pointers, slices, arrays, and map values and returns
// the type key when the result is a named type declared in this
// module, else "".
func (ix *coverIndex) keyOf(t types.Type) string {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
			continue
		case *types.Slice:
			t = u.Elem()
			continue
		case *types.Array:
			t = u.Elem()
			continue
		case *types.Map:
			t = u.Elem()
			continue
		}
		break
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !ix.modulePkgs[named.Obj().Pkg().Path()] {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// recvKey returns the type key of fn's receiver struct, or "" when fn
// is not a method on a module-declared named type.
func (ix *coverIndex) recvKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	return ix.keyOf(sig.Recv().Type())
}

// fieldPath resolves a field selector to the module struct fields it
// selects, outermost first, as "<type key>.<field>": c.Size selects
// Config.Size, and a promoted c.L1 selects Config.Lat, then Lat.L1.
// Method and package selectors select no field.
func (ix *coverIndex) fieldPath(pkg *Package, sel *ast.SelectorExpr) []string {
	s, ok := pkg.Info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	var path []string
	t := s.Recv()
	for _, i := range s.Index() {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok {
			return path
		}
		f := st.Field(i)
		if key := ix.keyOf(t); key != "" {
			path = append(path, key+"."+f.Name())
		}
		t = f.Type()
	}
	return path
}

// markWholesale marks key and, transitively, the struct types of the
// fields keep accepts (every field when keep is nil) as wholly covered.
func (ix *coverIndex) markWholesale(marked map[string]bool, key string, keep func(*coverField) bool) {
	t := ix.structs[key]
	if t == nil || marked[key] {
		return
	}
	marked[key] = true
	for _, f := range t.fields {
		if keep == nil || keep(f) {
			ix.markWholesale(marked, f.structKey, keep)
		}
	}
}

// walk visits every field of the types tracked from roots breadth
// first, each type once, passing the declaration chain from the root
// type down to the field ("sim.Config", "sim.Config.Hierarchy", ...).
// When visit returns true for a field whose type is an indexed struct,
// that type is tracked too. walk returns the tracked type keys.
func (ix *coverIndex) walk(roots []string, visit func(t *coverType, f *coverField, chain []string) bool) map[string]bool {
	type item struct {
		key string
		via []string
	}
	var queue []item
	for _, r := range roots {
		queue = append(queue, item{key: r, via: []string{ix.structs[r].display}})
	}
	tracked := make(map[string]bool)
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if tracked[it.key] {
			continue
		}
		tracked[it.key] = true
		t := ix.structs[it.key]
		for _, f := range t.fields {
			chain := append(append([]string(nil), it.via...), t.display+"."+f.name)
			if visit(t, f, chain) && ix.structs[f.structKey] != nil {
				queue = append(queue, item{key: f.structKey, via: chain})
			}
		}
	}
	return tracked
}
