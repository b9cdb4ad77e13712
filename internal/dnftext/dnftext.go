// Package dnftext parses and prints a small text format for DNFs over
// discrete random variables, used by cmd/dtree. The format:
//
//	# comment
//	var x 0.3
//	var y 0.6
//	var v 0.2 0.3 0.5
//	clause x !y v=2
//
// declares a Boolean variable x with P(x=true) = 0.3, another, y, and a
// discrete variable v with 3 domain values, and adds the clause
// x ∧ ¬y ∧ (v = 2). Lines may appear in any order as long as variables
// are declared before use. Empty lines and lines starting with # are
// ignored; a # later in a line does not start a comment. A variable's
// name is non-empty, holds no whitespace and no '=', and starts with
// neither '!' nor '#'.
package dnftext

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/formula"
)

// Write renders the space's variables (those used by d) and d's clauses
// in the textual format, so that Parse(Write(s, d)) reconstructs the
// same clauses over bitwise the same atom probabilities. Names come
// from the space; unnamed variables get their default "x<id>" names.
// A name Parse cannot read back (see the package doc), or one that two
// of d's variables share, is an error, and nothing is written. A
// Boolean variable is written by P(true) alone only when Parse's
// 1 − P(true) rebuilds its P(false) bit for bit; otherwise (var v 0.3
// 0.7: 1 − 0.7 is 0.30000000000000004) its whole distribution is
// written.
func Write(w io.Writer, s *formula.Space, d formula.DNF) error {
	vars := d.Vars()
	seen := make(map[string]bool, len(vars))
	for _, v := range vars {
		name := s.Name(v)
		if err := checkName(name); err != nil {
			return fmt.Errorf("dnftext: variable %d: %v", v, err)
		}
		if seen[name] {
			return fmt.Errorf("dnftext: variable %d: name %q is used by another variable", v, name)
		}
		seen[name] = true
	}
	bw := bufio.NewWriter(w)
	for _, v := range vars {
		fmt.Fprintf(bw, "var %s", s.Name(v))
		if s.DomainSize(v) == 2 && 1-s.PTrue(v) == s.P(formula.Neg(v)) {
			fmt.Fprintf(bw, " %g", s.PTrue(v))
		} else {
			for a := 0; a < s.DomainSize(v); a++ {
				fmt.Fprintf(bw, " %g", s.P(formula.Atom{Var: v, Val: formula.Val(a)}))
			}
		}
		fmt.Fprintln(bw)
	}
	for _, c := range d {
		fmt.Fprint(bw, "clause")
		for _, a := range c {
			switch {
			case s.DomainSize(a.Var) != 2:
				fmt.Fprintf(bw, " %s=%d", s.Name(a.Var), a.Val)
			case a.Val == formula.True:
				fmt.Fprintf(bw, " %s", s.Name(a.Var))
			default:
				fmt.Fprintf(bw, " !%s", s.Name(a.Var))
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Parse reads the textual DNF description from r.
func Parse(r io.Reader) (*formula.Space, formula.DNF, error) {
	s := formula.NewSpace()
	vars := make(map[string]formula.Var)
	var d formula.DNF

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "var":
			if len(fields) < 3 {
				return nil, nil, fmt.Errorf("line %d: var needs a name and at least one probability", lineNo)
			}
			name := fields[1]
			if err := checkName(name); err != nil {
				return nil, nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if _, dup := vars[name]; dup {
				return nil, nil, fmt.Errorf("line %d: variable %q redeclared", lineNo, name)
			}
			dist := make([]float64, 0, len(fields)-2)
			for _, f := range fields[2:] {
				p, err := strconv.ParseFloat(f, 64)
				if err != nil {
					return nil, nil, fmt.Errorf("line %d: bad probability %q: %v", lineNo, f, err)
				}
				dist = append(dist, p)
			}
			var v formula.Var
			var err error
			func() {
				defer func() {
					if rec := recover(); rec != nil {
						err = fmt.Errorf("line %d: %v", lineNo, rec)
					}
				}()
				if len(dist) == 1 {
					v = s.AddBool(dist[0])
				} else {
					v = s.AddVar(dist...)
				}
			}()
			if err != nil {
				return nil, nil, err
			}
			s.SetName(v, name)
			vars[name] = v
		case "clause":
			if len(fields) < 2 {
				return nil, nil, fmt.Errorf("line %d: empty clause", lineNo)
			}
			atoms := make([]formula.Atom, 0, len(fields)-1)
			for _, lit := range fields[1:] {
				a, err := parseLiteral(s, vars, lit)
				if err != nil {
					return nil, nil, fmt.Errorf("line %d: %v", lineNo, err)
				}
				atoms = append(atoms, a)
			}
			c, ok := formula.NewClause(atoms...)
			if !ok {
				return nil, nil, fmt.Errorf("line %d: inconsistent clause", lineNo)
			}
			d = append(d, c)
		default:
			return nil, nil, fmt.Errorf("line %d: unknown directive %q (want var/clause)", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	return s, d.Normalize(), nil
}

// checkName returns an error for a variable name that a clause line
// cannot refer to: an empty one, one that whitespace would split or
// '=' would cut, or one that starts with the negation '!' or the
// comment mark '#'.
func checkName(name string) error {
	switch {
	case name == "":
		return fmt.Errorf("empty variable name")
	case strings.IndexFunc(name, unicode.IsSpace) >= 0, strings.Contains(name, "="),
		name[0] == '!', name[0] == '#':
		return fmt.Errorf("variable name %q cannot be read back: it holds whitespace or '=', or starts with '!' or '#'", name)
	}
	return nil
}

func parseLiteral(s *formula.Space, vars map[string]formula.Var, lit string) (formula.Atom, error) {
	neg := false
	if strings.HasPrefix(lit, "!") {
		neg = true
		lit = lit[1:]
	}
	name, valStr, hasVal := strings.Cut(lit, "=")
	v, ok := vars[name]
	if !ok {
		return formula.Atom{}, fmt.Errorf("undeclared variable %q", name)
	}
	if hasVal {
		if neg {
			return formula.Atom{}, fmt.Errorf("cannot negate %q: negation is Boolean-only", lit)
		}
		val, err := strconv.Atoi(valStr)
		if err != nil || val < 0 || val >= s.DomainSize(v) {
			return formula.Atom{}, fmt.Errorf("bad domain value %q for %q (domain size %d)", valStr, name, s.DomainSize(v))
		}
		return formula.Atom{Var: v, Val: formula.Val(val)}, nil
	}
	if s.DomainSize(v) != 2 {
		return formula.Atom{}, fmt.Errorf("variable %q is not Boolean; use %s=<value>", name, name)
	}
	if neg {
		return formula.Neg(v), nil
	}
	return formula.Pos(v), nil
}
