package query

import (
	"strings"
)

// Direct XML constructor parsing. The constructor body is scanned in raw
// mode (character by character) because XML content does not tokenize like
// the query language; enclosed expressions `{...}` switch back to token
// mode.

// resetRaw rewinds the lexer to the position of the first buffered token and
// clears the lookahead buffer so raw scanning can proceed.
func (p *parser) resetRaw() {
	if p.l.n > 0 {
		p.l.pos = p.l.ahead[p.l.head].pos
		p.l.n = 0
	}
}

func (p *parser) parseDirectConstructor(pos int) (Expr, error) {
	p.resetRaw()
	if c, ok := p.l.rawByte(); !ok || c != '<' {
		return nil, p.l.errf(pos, "expected '<'")
	}
	return p.parseElementCtorRaw()
}

// parseElementCtorRaw parses an element constructor after the '<' has been
// consumed.
func (p *parser) parseElementCtorRaw() (Expr, error) {
	name := p.rawName()
	if name == "" {
		return nil, p.l.errf(p.l.pos, "expected element name")
	}
	ctor := &ElementCtor{Name: name}
	// Attributes.
	for {
		p.rawSkipSpace()
		c, ok := p.l.rawPeek()
		if !ok {
			return nil, p.l.errf(p.l.pos, "unterminated constructor <%s", name)
		}
		if c == '/' {
			p.l.rawByte()
			if c2, ok := p.l.rawByte(); !ok || c2 != '>' {
				return nil, p.l.errf(p.l.pos, "expected '/>'")
			}
			return ctor, nil
		}
		if c == '>' {
			p.l.rawByte()
			break
		}
		aname := p.rawName()
		if aname == "" {
			return nil, p.l.errf(p.l.pos, "expected attribute name in <%s>", name)
		}
		p.rawSkipSpace()
		if c, ok := p.l.rawByte(); !ok || c != '=' {
			return nil, p.l.errf(p.l.pos, "expected '=' after attribute %s", aname)
		}
		p.rawSkipSpace()
		quote, ok := p.l.rawByte()
		if !ok || (quote != '"' && quote != '\'') {
			return nil, p.l.errf(p.l.pos, "expected quoted attribute value")
		}
		// Scan to the closing quote, but quotes inside enclosed {…}
		// expressions belong to the expression, not the attribute.
		var raw strings.Builder
		depth := 0
		for {
			c, ok := p.l.rawByte()
			if !ok {
				return nil, p.l.errf(p.l.pos, "unterminated attribute value")
			}
			if depth == 0 && c == quote {
				break
			}
			switch c {
			case '{':
				if c2, _ := p.l.rawPeek(); c2 == '{' && depth == 0 {
					raw.WriteByte('{')
					raw.WriteByte('{')
					p.l.rawByte()
					continue
				}
				depth++
			case '}':
				if depth > 0 {
					depth--
				}
			case '"', '\'':
				if depth > 0 {
					// String literal inside the enclosed expression: copy
					// verbatim to its end.
					raw.WriteByte(c)
					for {
						c2, ok := p.l.rawByte()
						if !ok {
							return nil, p.l.errf(p.l.pos, "unterminated string in attribute expression")
						}
						raw.WriteByte(c2)
						if c2 == c {
							break
						}
					}
					continue
				}
			}
			raw.WriteByte(c)
		}
		parts, err := p.parseEmbedded(raw.String())
		if err != nil {
			return nil, err
		}
		ctor.Attrs = append(ctor.Attrs, AttrCtor{Name: aname, Value: parts})
	}
	// Content.
	var text strings.Builder
	flushText := func() {
		s := text.String()
		text.Reset()
		if strings.TrimSpace(s) == "" {
			return // boundary whitespace is stripped
		}
		ctor.Content = append(ctor.Content, &TextCtor{Content: strLit(decodeEntities(s))})
	}
	for {
		c, ok := p.l.rawByte()
		if !ok {
			return nil, p.l.errf(p.l.pos, "unterminated content of <%s>", name)
		}
		switch c {
		case '<':
			c2, ok := p.l.rawPeek()
			if !ok {
				return nil, p.l.errf(p.l.pos, "unterminated content of <%s>", name)
			}
			if c2 == '/' {
				flushText()
				p.l.rawByte()
				end := p.rawName()
				if end != name {
					return nil, p.l.errf(p.l.pos, "mismatched </%s>, expected </%s>", end, name)
				}
				p.rawSkipSpace()
				if c3, ok := p.l.rawByte(); !ok || c3 != '>' {
					return nil, p.l.errf(p.l.pos, "expected '>' after </%s", end)
				}
				return ctor, nil
			}
			if c2 == '!' {
				// <!--comment-->
				if !strings.HasPrefix(p.l.src[p.l.pos:], "!--") {
					return nil, p.l.errf(p.l.pos, "unsupported markup in constructor")
				}
				p.l.pos += 3
				idx := strings.Index(p.l.src[p.l.pos:], "-->")
				if idx < 0 {
					return nil, p.l.errf(p.l.pos, "unterminated comment")
				}
				flushText()
				ctor.Content = append(ctor.Content, &CommentCtor{
					Content: strLit(p.l.src[p.l.pos : p.l.pos+idx]),
				})
				p.l.pos += idx + 3
				continue
			}
			flushText()
			sub, err := p.parseElementCtorRaw()
			if err != nil {
				return nil, err
			}
			ctor.Content = append(ctor.Content, sub)
		case '{':
			if c2, _ := p.l.rawPeek(); c2 == '{' {
				p.l.rawByte()
				text.WriteByte('{')
				continue
			}
			flushText()
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSymbol("}"); err != nil {
				return nil, err
			}
			p.resetRaw()
			ctor.Content = append(ctor.Content, e)
		case '}':
			if c2, _ := p.l.rawPeek(); c2 == '}' {
				p.l.rawByte()
			}
			text.WriteByte('}')
		default:
			text.WriteByte(c)
		}
	}
}

func (p *parser) rawSkipSpace() {
	for {
		c, ok := p.l.rawPeek()
		if !ok || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			return
		}
		p.l.rawByte()
	}
}

func (p *parser) rawName() string {
	start := p.l.pos
	c, ok := p.l.rawPeek()
	if !ok || !isNameStart(rune(c)) {
		return ""
	}
	p.l.rawByte()
	for {
		c, ok := p.l.rawPeek()
		if !ok || !(isNameChar(rune(c)) || c == ':') {
			break
		}
		p.l.rawByte()
	}
	return p.l.src[start:p.l.pos]
}

// parseEmbedded splits attribute-value text into literal and enclosed-
// expression parts.
func (p *parser) parseEmbedded(s string) ([]Expr, error) {
	var parts []Expr
	var text strings.Builder
	flush := func() {
		if text.Len() > 0 {
			parts = append(parts, strLit(decodeEntities(text.String())))
			text.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '{':
			if i+1 < len(s) && s[i+1] == '{' {
				text.WriteByte('{')
				i++
				continue
			}
			depth := 1
			j := i + 1
			for j < len(s) && depth > 0 {
				if s[j] == '{' {
					depth++
				} else if s[j] == '}' {
					depth--
				}
				j++
			}
			if depth != 0 {
				return nil, p.l.errf(p.l.pos, "unbalanced '{' in attribute value")
			}
			flush()
			e, err := ParseExpr(s[i+1 : j-1])
			if err != nil {
				return nil, err
			}
			parts = append(parts, e)
			i = j - 1
		case '}':
			if i+1 < len(s) && s[i+1] == '}' {
				i++
			}
			text.WriteByte('}')
		default:
			text.WriteByte(s[i])
		}
	}
	flush()
	return parts, nil
}

var entityReplacer = strings.NewReplacer(
	"&lt;", "<", "&gt;", ">", "&amp;", "&", "&quot;", `"`, "&apos;", "'",
)

func decodeEntities(s string) string {
	if !strings.Contains(s, "&") {
		return s
	}
	return entityReplacer.Replace(s)
}
