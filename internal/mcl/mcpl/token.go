// Package mcpl implements the Many-Core Programming Language (MCPL) of the
// MCL system that Cashmere builds on: a C-like kernel language with
// multi-dimensional arrays that track their sizes, `foreach` statements that
// express parallelism in terms of hardware-description identifiers, and
// memory-space qualifiers for lower abstraction levels.
//
// This package provides the lexer, the AST, the parser and the type checker.
// Sibling packages translate kernels between hardware-description levels
// (mcl/translate), analyze and report optimization feedback (mcl/feedback),
// generate OpenCL-style code plus cost descriptors (mcl/codegen) and execute
// kernels for verification (mcl/closure).
package mcpl

import "fmt"

// TokKind enumerates token kinds.
type TokKind int

// Token kinds.
const (
	TokEOF TokKind = iota
	TokIdent
	TokIntLit
	TokFloatLit
	TokKeyword // if else for while foreach in return void int float boolean true false barrier local global private const expect
	TokPunct   // operators and delimiters
)

// Keywords of MCPL. The hardware-description level of a kernel (e.g.
// "perfect", "gpu") is intentionally not a keyword: it is an identifier
// resolved against the HDL library.
var keywords = map[string]bool{
	"if": true, "else": true, "for": true, "while": true,
	"foreach": true, "in": true, "return": true,
	"void": true, "int": true, "float": true, "boolean": true,
	"true": true, "false": true,
	"local": true, "global": true, "private": true, "const": true,
}

// Pos is a source position.
type Pos struct {
	Line, Col int
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind TokKind
	Text string
	Pos  Pos
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of file"
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// Is reports whether the token is the given punctuation or keyword.
func (t Token) Is(text string) bool {
	return (t.Kind == TokPunct || t.Kind == TokKeyword) && t.Text == text
}
