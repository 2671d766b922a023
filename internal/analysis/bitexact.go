package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// Bitexact guards the kernel bit-identity contract in packages annotated
// //topk:bitexact (internal/simd, internal/geom): every kernel variant
// must produce float64 results bit-identical to the pointwise reference,
// because scores feed total-order comparisons and the differential
// harness asserts byte-identical transcripts.
//
//   - rule "fma": math.FMA fuses the multiply-add with a single rounding,
//     so its result differs from the unfused expression by up to 1 ulp —
//     a kernel using it can never match the portable leg bit for bit. The
//     ban has no exceptions.
//   - rule "contract": the Go spec lets the compiler contract a float
//     multiply feeding an add/sub into a hardware FMA (gc does this on
//     arm64, ppc64, and s390x — not on amd64). An expression shaped
//     `a*b + c` therefore computes different bits on different
//     architectures unless the product is forced through an explicit
//     float64() conversion, which the spec guarantees rounds. The rule
//     flags every contractible shape and suggests the conversion; -fix
//     applies it.
//   - rule "parity": every kernel defined in more than one build leg
//     (portable / assembly-stub / future ISA files) must keep the same name and
//     identical signature in every leg, and the legs' build constraints
//     must cover each GOARCH exactly once — a missing or doubled leg on
//     some architecture is diagnosed here instead of in that
//     architecture's build.
//   - rule "acc": functions annotated //topk:acc N must carry exactly N
//     independent float accumulator chains in their widest loop. The
//     accumulator structure IS the rounding order; silently collapsing a
//     4-chain kernel to 2 chains (or widening it to 8) changes every
//     result, and no signature or test name would show it.
//   - rule "asm": assembly legs are held to the same contract as Go legs.
//     Every TEXT symbol in a package .s file must have a Go stub
//     declaration on each GOARCH the file targets and vice versa (a
//     missing stub hides the symbol from the parity rule; a missing TEXT
//     fails only at link time on that architecture), every stub must be
//     reachable from package Go code (an uncalled entry point escapes the
//     equivalence suites), fused multiply-add mnemonics may not appear
//     in any .s file, and a package defining assembly kernels must carry an exhaustive equivalence test suite
//     (Test*Exhaustive) pinning them to the scalar reference.
var Bitexact = &Analyzer{
	Name: "bitexact",
	Doc:  "forbid math.FMA, fused assembly mnemonics and compiler-contractible float shapes, and enforce kernel build-leg parity, accumulator structure, and assembly-leg hygiene in //topk:bitexact packages",
	Run:  runBitexact,
}

// parityArches is the GOARCH set over which kernel build-leg coverage is
// checked. It mirrors the architectures the dispatch layer distinguishes.
var parityArches = []string{"amd64", "arm64", "386", "riscv64", "ppc64le", "s390x", "wasm"}

func runBitexact(pass *Pass) error {
	dirs := pass.directives()
	if !dirs.pkgBitexact {
		return nil
	}
	for _, file := range pass.Files {
		fname := filepath.Base(pass.Fset.Position(file.Pos()).Filename)
		if strings.HasSuffix(fname, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkContractions(pass, fn)
			if want, ok := dirs.funcAcc[fn]; ok {
				checkAccumulators(pass, fn, want)
			}
		}
	}
	checkBuildLegParity(pass)
	checkAsmLegs(pass)
	return nil
}

// checkContractions flags math.FMA calls and contractible float shapes.
func checkContractions(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if obj, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func); ok &&
					obj.Pkg() != nil && obj.Pkg().Path() == "math" && obj.Name() == "FMA" {
					pass.Reportf(n.Pos(), "fma", "math.FMA rounds once where the portable expression rounds twice: results can never be bit-identical to the reference leg")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD || n.Op == token.SUB {
				checkContractOperand(pass, n.Op, n.X)
				checkContractOperand(pass, n.Op, n.Y)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN {
				op := token.ADD
				if n.Tok == token.SUB_ASSIGN {
					op = token.SUB
				}
				checkContractOperand(pass, op, n.Rhs[0])
			}
		}
		return true
	})
}

// checkContractOperand reports e when it is a float multiply feeding an
// add/sub directly (parentheses do not prevent contraction; only an
// explicit conversion does), attaching the conversion as a suggested fix.
func checkContractOperand(pass *Pass, op token.Token, e ast.Expr) {
	inner := e
	for {
		p, ok := inner.(*ast.ParenExpr)
		if !ok {
			break
		}
		inner = p.X
	}
	mul, ok := inner.(*ast.BinaryExpr)
	if !ok || mul.Op != token.MUL {
		return
	}
	t := pass.TypesInfo.TypeOf(mul)
	if t == nil || !isFloat(t) {
		return
	}
	conv := "float64"
	if b, ok := t.Underlying().(*types.Basic); ok && b.Kind() == types.Float32 {
		conv = "float32"
	}
	pass.Report(Diagnostic{
		Pos:     e.Pos(),
		End:     e.End(),
		Rule:    "contract",
		Message: fmt.Sprintf("float multiply feeding %s may be contracted into an FMA on some architectures; wrap the product in %s(...) to force the intermediate rounding the reference leg performs", op, conv),
		Fix: &SuggestedFix{
			Message: fmt.Sprintf("wrap the product in an explicit %s conversion", conv),
			Edits: []TextEdit{
				{Pos: e.Pos(), End: e.Pos(), NewText: conv + "("},
				{Pos: e.End(), End: e.End(), NewText: ")"},
			},
		},
	})
}

// checkAccumulators verifies the //topk:acc N contract: the widest loop in
// fn must carry exactly N distinct float accumulator chains (variables
// receiving compound float assignment anywhere in the loop's subtree).
func checkAccumulators(pass *Pass, fn *ast.FuncDecl, want int) {
	max := 0
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		var body *ast.BlockStmt
		switch n := n.(type) {
		case *ast.ForStmt:
			body = n.Body
		case *ast.RangeStmt:
			body = n.Body
		default:
			return true
		}
		accs := map[types.Object]bool{}
		ast.Inspect(body, func(m ast.Node) bool {
			as, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			switch as.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN:
			default:
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil && isFloat(obj.Type()) {
				accs[obj] = true
			}
			return true
		})
		if len(accs) > max {
			max = len(accs)
		}
		return true
	})
	if max != want {
		pass.Reportf(fn.Pos(), "acc", "%s is annotated //topk:acc %d but its widest loop carries %d float accumulator chain(s): the chain count fixes the rounding order, so it must match the annotation (and the paired variant legs)", fn.Name.Name, want, max)
	}
}

// legFunc records one function declaration found in one file of the
// package directory, with that file's build constraint.
type legFunc struct {
	file string
	expr constraint.Expr // nil means unconstrained
	sig  string
	pos  token.Pos // valid only when the decl is in the active file set
}

// checkBuildLegParity parses every non-test .go file in the package
// directory — including files the current build configuration excludes —
// and checks that same-named functions agree on signature across build
// legs and that their legs tile the GOARCH space exactly once.
func checkBuildLegParity(pass *Pass) {
	entries, err := os.ReadDir(pass.Dir)
	if err != nil {
		return // no directory view (e.g. synthesized fixture); skip parity
	}
	anchor := pass.Files[0].Name.Pos() // fallback diagnostic position

	// Positions of active declarations, to anchor diagnostics precisely.
	activePos := map[string]token.Pos{}
	activeFile := map[string]string{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil {
				activePos[fn.Name.Name] = fn.Pos()
				activeFile[fn.Name.Name] = filepath.Base(pass.Fset.Position(fn.Pos()).Filename)
			}
		}
	}

	fset := token.NewFileSet()
	byName := map[string][]legFunc{}
	// usedUnconstrained holds identifiers referenced from files with no
	// build constraint — the dispatch layer. Only those names must tile
	// the whole GOARCH space; an arch-local helper may stay arch-local.
	usedUnconstrained := map[string]bool{}
	pkgName := pass.Files[0].Name.Name
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(pass.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil || f.Name.Name != pkgName {
			continue
		}
		expr := fileConstraint(name, f)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			sig := signatureString(fn)
			byName[fn.Name.Name] = append(byName[fn.Name.Name], legFunc{file: name, expr: expr, sig: sig})
			if expr == nil && fn.Body != nil {
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						usedUnconstrained[id.Name] = true
					}
					return true
				})
			}
		}
	}

	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		legs := byName[n]
		pos := activePos[n]
		if pos == token.NoPos {
			pos = anchor
		}
		for _, leg := range legs[1:] {
			if leg.sig != legs[0].sig {
				pass.Reportf(pos, "parity", "kernel %s has diverging signatures across build legs: %s in %s vs %s in %s", n, legs[0].sig, legs[0].file, leg.sig, leg.file)
				break
			}
		}
		constrained := false
		for _, leg := range legs {
			if leg.expr != nil {
				constrained = true
			}
		}
		if !constrained || !usedUnconstrained[n] {
			continue
		}
		var missing, doubled []string
		for _, arch := range parityArches {
			count := 0
			for _, leg := range legs {
				if evalArch(leg.expr, arch) {
					count++
				}
			}
			switch {
			case count == 0:
				missing = append(missing, arch)
			case count > 1:
				doubled = append(doubled, arch)
			}
		}
		if len(missing) > 0 {
			pass.Reportf(pos, "parity", "kernel %s is dispatched from an unconstrained file but has no build leg covering GOARCH %s: those builds would not compile", n, strings.Join(missing, ", "))
		}
		if len(doubled) > 0 {
			pass.Reportf(pos, "parity", "kernel %s has overlapping build legs on GOARCH %s: duplicate definitions on those architectures", n, strings.Join(doubled, ", "))
		}
	}
}

// asmTextRE matches a Plan9 TEXT directive for a package-local symbol.
var asmTextRE = regexp.MustCompile(`^TEXT\s+·([A-Za-z0-9_]+)\(SB\)`)

// fusedMnemonicRE matches fused multiply-add mnemonics on both supported
// ISAs: VFMADD*/VFMSUB*/VFNMADD*/VFNMSUB* (AVX2+FMA3) and
// FMADD/FMSUB/FNMADD/FNMSUB/FMLA/FMLS/VFMLA/VFMLS (arm64 scalar and
// NEON). Non-fused neighbors (FMOVD, FMULD, VMULPD) do not match.
var fusedMnemonicRE = regexp.MustCompile(`^V?F(N?M(ADD|SUB)|ML[AS])`)

// asmSite locates one TEXT definition inside a package .s file.
type asmSite struct {
	file string
	line int
}

// asmFileArches returns the GOARCH set a .s file targets, derived from
// its _GOARCH.s filename suffix; a file without one targets every
// parity architecture.
func asmFileArches(name string) []string {
	base := strings.TrimSuffix(name, ".s")
	for _, arch := range parityArches {
		if strings.HasSuffix(base, "_"+arch) {
			return []string{arch}
		}
	}
	return parityArches
}

// checkAsmLegs enforces the assembly half of the bit-identity contract:
// TEXT symbols and Go stub declarations must pair up on every targeted
// GOARCH, stubs must be reachable from package Go code, fused
// multiply-add mnemonics are banned, and a
// package with assembly kernels must carry an exhaustive equivalence
// suite holding them to the scalar reference.
func checkAsmLegs(pass *Pass) {
	entries, err := os.ReadDir(pass.Dir)
	if err != nil {
		return // no directory view (synthesized fixture); skip
	}
	anchor := pass.Files[0].Name.Pos()

	// Scan .s files: TEXT symbols per arch, fused mnemonics per line.
	asmByArch := map[string]map[string]asmSite{} // arch -> symbol -> site
	textSite := map[string]asmSite{}             // symbol -> first site
	textArches := map[string][]string{}          // symbol -> targeted arches
	sawText := false
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".s") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(pass.Dir, name))
		if err != nil {
			continue
		}
		arches := asmFileArches(name)
		for i, line := range strings.Split(string(data), "\n") {
			if idx := strings.Index(line, "//"); idx >= 0 {
				line = line[:idx]
			}
			line = strings.TrimSpace(line)
			if line == "" {
				continue
			}
			if m := asmTextRE.FindStringSubmatch(line); m != nil {
				sawText = true
				site := asmSite{file: name, line: i + 1}
				for _, arch := range arches {
					if asmByArch[arch] == nil {
						asmByArch[arch] = map[string]asmSite{}
					}
					asmByArch[arch][m[1]] = site
				}
				if _, ok := textSite[m[1]]; !ok {
					textSite[m[1]] = site
				}
				textArches[m[1]] = append(textArches[m[1]], arches...)
				continue
			}
			for _, tok := range strings.Fields(line) {
				if fusedMnemonicRE.MatchString(tok) {
					pass.Reportf(anchor, "asm", "%s:%d: fused multiply-add %s: fused kernels round once per term and can never be bit-identical to the reference leg", name, i+1, tok)
					break
				}
			}
		}
	}

	// Scan the package's non-test Go files (all build legs): bodyless
	// declarations are assembly stubs; identifiers used inside bodies
	// tell us which stubs the dispatch layer actually reaches.
	fset := token.NewFileSet()
	type stubDecl struct {
		name string
		file string
		expr constraint.Expr
	}
	var stubs []stubDecl
	referenced := map[string]bool{}
	hasExhaustive := false
	pkgName := pass.Files[0].Name.Name
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(pass.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			for _, d := range f.Decls {
				if fn, ok := d.(*ast.FuncDecl); ok &&
					strings.HasPrefix(fn.Name.Name, "Test") && strings.Contains(fn.Name.Name, "Exhaustive") {
					hasExhaustive = true
				}
			}
			continue
		}
		if f.Name.Name != pkgName {
			continue
		}
		expr := fileConstraint(name, f)
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			if fn.Body == nil {
				stubs = append(stubs, stubDecl{name: fn.Name.Name, file: name, expr: expr})
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					referenced[id.Name] = true
				}
				return true
			})
		}
	}
	if !sawText && len(stubs) == 0 {
		return
	}

	// Anchor stub diagnostics at the active declaration when there is one.
	activePos := map[string]token.Pos{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Body == nil {
				activePos[fn.Name.Name] = fn.Pos()
			}
		}
	}

	// Every stub needs a TEXT definition on each GOARCH its build
	// constraint admits, and a call site somewhere in package Go code.
	stubByArch := map[string]map[string]bool{} // arch -> stub names
	for _, s := range stubs {
		pos := activePos[s.name]
		if pos == token.NoPos {
			pos = anchor
		}
		var missing []string
		for _, arch := range parityArches {
			if !evalArch(s.expr, arch) {
				continue
			}
			if stubByArch[arch] == nil {
				stubByArch[arch] = map[string]bool{}
			}
			stubByArch[arch][s.name] = true
			if _, ok := asmByArch[arch][s.name]; !ok {
				missing = append(missing, arch)
			}
		}
		if len(missing) > 0 {
			pass.Reportf(pos, "asm", "assembly stub %s (%s) has no TEXT ·%s definition on GOARCH %s: those builds would fail at link time", s.name, s.file, s.name, strings.Join(missing, ", "))
		}
		if !referenced[s.name] {
			pass.Reportf(pos, "asm", "assembly stub %s is never called from package Go code: a dead entry point the equivalence suites cannot reach", s.name)
		}
	}

	// Every TEXT symbol needs a stub on each GOARCH its file targets —
	// otherwise the symbol is invisible to the dispatch layer and to the
	// build-leg parity rule.
	names := make([]string, 0, len(textSite))
	for n := range textSite {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var missing []string
		for _, arch := range parityArches {
			covered := false
			for _, a := range textArches[n] {
				if a == arch {
					covered = true
				}
			}
			if covered && !stubByArch[arch][n] {
				missing = append(missing, arch)
			}
		}
		if len(missing) > 0 {
			site := textSite[n]
			pass.Reportf(anchor, "asm", "%s:%d: TEXT ·%s has no Go stub declaration on GOARCH %s: the symbol is invisible to the dispatch layer and the parity rule", site.file, site.line, n, strings.Join(missing, ", "))
		}
	}

	if sawText && !hasExhaustive {
		pass.Reportf(anchor, "asm", "package defines assembly kernels but no Test*Exhaustive equivalence suite pins them to the scalar reference")
	}
}

// ActiveForArch reports whether f's build constraint (if any) admits
// GOARCH=arch. The fixture loader uses it to assemble a deterministic
// amd64 view of multi-leg packages regardless of the host architecture.
func ActiveForArch(f *ast.File, arch string) bool {
	return evalArch(buildConstraintOf(f), arch)
}

// impliedArch returns the GOARCH a `_GOARCH.go` / `_GOARCH.s` filename
// suffix implies, or "" for an unsuffixed file. Go applies this
// constraint before any //go:build line is read, so leg analysis must
// honor it too — legs_amd64.go without an explicit constraint is still
// an amd64-only leg.
func impliedArch(name string) string {
	base := name
	if i := strings.LastIndexByte(base, '.'); i >= 0 {
		base = base[:i]
	}
	for _, arch := range parityArches {
		if strings.HasSuffix(base, "_"+arch) {
			return arch
		}
	}
	return ""
}

// fileConstraint combines a file's //go:build expression with its
// filename-implied GOARCH constraint; nil means fully unconstrained.
func fileConstraint(name string, f *ast.File) constraint.Expr {
	expr := buildConstraintOf(f)
	arch := impliedArch(name)
	if arch == "" {
		return expr
	}
	tag := &constraint.TagExpr{Tag: arch}
	if expr == nil {
		return tag
	}
	return &constraint.AndExpr{X: tag, Y: expr}
}

// buildConstraintOf extracts the //go:build expression of a parsed file,
// or nil when the file is unconstrained.
func buildConstraintOf(f *ast.File) constraint.Expr {
	for _, cg := range f.Comments {
		if cg.Pos() > f.Package {
			break
		}
		for _, c := range cg.List {
			if constraint.IsGoBuild(c.Text) {
				if expr, err := constraint.Parse(c.Text); err == nil {
					return expr
				}
			}
		}
	}
	return nil
}

// evalArch evaluates a build constraint with exactly GOARCH=arch (and
// linux/gc) set.
func evalArch(expr constraint.Expr, arch string) bool {
	if expr == nil {
		return true
	}
	return expr.Eval(func(tag string) bool {
		switch tag {
		case arch, "linux", "gc", "go1.24":
			return true
		}
		return false
	})
}

// signatureString renders a function signature for cross-leg comparison.
func signatureString(fn *ast.FuncDecl) string {
	var b strings.Builder
	b.WriteString("func(")
	writeFieldList(&b, fn.Type.Params)
	b.WriteString(")")
	if fn.Type.Results != nil {
		b.WriteString(" (")
		writeFieldList(&b, fn.Type.Results)
		b.WriteString(")")
	}
	return b.String()
}

func writeFieldList(b *strings.Builder, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for i, f := range fl.List {
		if i > 0 {
			b.WriteString(", ")
		}
		n := len(f.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(types.ExprString(f.Type))
		}
	}
}
