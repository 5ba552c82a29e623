package query

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// tokKind classifies tokens.
type tokKind int

const (
	tokEOF    tokKind = iota
	tokName           // NCName or QName (a:b)
	tokVar            // $name
	tokString         // "..." or '...'
	tokNumber
	tokSymbol // punctuation and operators, in tok.text
)

type token struct {
	kind     tokKind
	text     string
	num      float64
	pos, end int // source bytes [pos, end)
}

// lookahead is how many tokens the parser looks ahead at most (peekN(1)).
const lookahead = 2

// lexer tokenizes the query language. XML constructor content is lexed by
// the parser switching the lexer into raw mode via rawByte.
type lexer struct {
	src string
	pos int
	// ahead is the lookahead ring: its n tokens start at ahead[head].
	ahead   [lookahead]token
	head, n int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

func (l *lexer) errf(pos int, format string, args ...any) error {
	line := 1 + strings.Count(l.src[:min(pos, len(l.src))], "\n")
	return fmt.Errorf("query: line %d: %s", line, fmt.Sprintf(format, args...))
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// peek returns the next token without consuming it.
func (l *lexer) peek() (token, error) { return l.peekN(0) }

func (l *lexer) peekN(n int) (token, error) {
	if n >= lookahead {
		panic("query: lookahead beyond the ring")
	}
	for l.n <= n {
		t, err := l.scan()
		if err != nil {
			return token{}, err
		}
		l.ahead[(l.head+l.n)%lookahead] = t
		l.n++
	}
	return l.ahead[(l.head+n)%lookahead], nil
}

// next consumes and returns the next token.
func (l *lexer) next() (token, error) {
	t, err := l.peek()
	if err != nil {
		return token{}, err
	}
	l.head = (l.head + 1) % lookahead
	l.n--
	return t, nil
}

// rawByte returns the next raw source byte (constructor content mode); the
// lookahead buffer must be empty.
func (l *lexer) rawByte() (byte, bool) {
	if l.n != 0 {
		panic("query: rawByte with buffered tokens")
	}
	if l.pos >= len(l.src) {
		return 0, false
	}
	c := l.src[l.pos]
	l.pos++
	return c, true
}

// rawPeek peeks the next raw byte.
func (l *lexer) rawPeek() (byte, bool) {
	if l.pos >= len(l.src) {
		return 0, false
	}
	return l.src[l.pos], true
}

func (l *lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c == '(' && l.pos+1 < len(l.src) && l.src[l.pos+1] == ':':
			depth := 1
			i := l.pos + 2
			for i < len(l.src) && depth > 0 {
				if strings.HasPrefix(l.src[i:], "(:") {
					depth++
					i += 2
				} else if strings.HasPrefix(l.src[i:], ":)") {
					depth--
					i += 2
				} else {
					i++
				}
			}
			if depth > 0 {
				return l.errf(l.pos, "unterminated comment")
			}
			l.pos = i
		default:
			return nil
		}
	}
	return nil
}

// multi-character symbols, longest first.
var symbols = []string{
	"<<", ">>", "!=", "<=", ">=", ":=", "//", "..", "::",
	"(", ")", "[", "]", "{", "}", ",", ";", "/", "@", "*", "+", "-",
	"=", "<", ">", "|", ".", "$", "?",
}

func (l *lexer) scan() (token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return token{}, err
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos, end: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]

	// String literal: a substring of the source unless it doubles its quote.
	if c == '"' || c == '\'' {
		i := l.pos + 1
		from := i
		var doubled []byte
		for {
			j := strings.IndexByte(l.src[i:], c)
			if j < 0 {
				return token{}, l.errf(start, "unterminated string literal")
			}
			i += j
			if i+1 < len(l.src) && l.src[i+1] == c {
				doubled = append(doubled, l.src[from:i+1]...) // doubled quote escape
				i += 2
				from = i
				continue
			}
			text := l.src[from:i]
			if doubled != nil {
				text = string(append(doubled, text...))
			}
			l.pos = i + 1
			return token{kind: tokString, text: text, pos: start, end: l.pos}, nil
		}
	}

	// Number.
	if c >= '0' && c <= '9' || (c == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9') {
		i := l.pos
		seenDot := false
		for i < len(l.src) {
			ch := l.src[i]
			if ch >= '0' && ch <= '9' {
				i++
			} else if ch == '.' && !seenDot {
				// ".." must not be eaten as part of a number
				if i+1 < len(l.src) && l.src[i+1] == '.' {
					break
				}
				seenDot = true
				i++
			} else if ch == 'e' || ch == 'E' {
				j := i + 1
				if j < len(l.src) && (l.src[j] == '+' || l.src[j] == '-') {
					j++
				}
				if j < len(l.src) && l.src[j] >= '0' && l.src[j] <= '9' {
					i = j
					for i < len(l.src) && l.src[i] >= '0' && l.src[i] <= '9' {
						i++
					}
				}
				break
			} else {
				break
			}
		}
		text := l.src[l.pos:i]
		l.pos = i
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return token{}, l.errf(start, "bad number %q", text)
		}
		return token{kind: tokNumber, text: text, num: f, pos: start, end: i}, nil
	}

	// Variable.
	if c == '$' {
		l.pos++
		name := l.scanQName()
		if name == "" {
			return token{}, l.errf(start, "expected variable name after $")
		}
		return token{kind: tokVar, text: name, pos: start, end: l.pos}, nil
	}

	// Name / QName.
	if isNameStart(rune(c)) {
		name := l.scanQName()
		return token{kind: tokName, text: name, pos: start, end: l.pos}, nil
	}

	// Symbols.
	for _, s := range symbols {
		if strings.HasPrefix(l.src[l.pos:], s) {
			l.pos += len(s)
			return token{kind: tokSymbol, text: s, pos: start, end: l.pos}, nil
		}
	}
	return token{}, l.errf(start, "unexpected character %q", c)
}

func (l *lexer) scanQName() string {
	i := l.pos
	if i >= len(l.src) || !isNameStart(rune(l.src[i])) {
		return ""
	}
	i++
	for i < len(l.src) && isNameChar(rune(l.src[i])) {
		i++
	}
	// Optional :localname (but not ::= axis separator or :=).
	if i+1 < len(l.src) && l.src[i] == ':' && l.src[i+1] != ':' && l.src[i+1] != '=' && isNameStart(rune(l.src[i+1])) {
		i += 2
		for i < len(l.src) && isNameChar(rune(l.src[i])) {
			i++
		}
	}
	name := l.src[l.pos:i]
	l.pos = i
	return name
}

func isNameStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isNameChar(r rune) bool {
	return r == '_' || r == '-' || r == '.' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
