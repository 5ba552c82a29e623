// Package xmlscan is a streaming XML 1.0 tokenizer. It reads an io.Reader
// through one reusable buffer, so a document is never held whole, and hands
// back names, attribute values and text as byte slices that stay valid until
// the next token. Entity expansion and end-of-line normalization write into
// a reused scratch buffer; text that needs neither is a slice of the read
// buffer itself.
//
// It accepts what encoding/xml's Decoder.Token accepts in strict mode and
// returns the same tokens:
//
//   - names are namespace-translated: a bound prefix becomes its URI, the
//     default namespace applies to element names only, the xml prefix is
//     always bound, and an unbound prefix is kept as written;
//   - the five predefined entities and character references are expanded;
//   - CR LF and a lone CR both read as LF;
//   - each CDATA section is its own character data, and a comment,
//     processing instruction or directive ends the character data before it;
//   - directives (a DOCTYPE with its internal subset) are skipped;
//   - only UTF-8 is read: an encoding declaration naming another encoding is
//     an error, as it is for a Decoder without a CharsetReader, and so are an
//     illegal character, an unknown entity and a mismatched or unclosed tag.
//
// FuzzScanXML holds the scanner and encoding/xml to the same decision on
// every input and to the same token stream on every input both accept.
package xmlscan

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Kind is the kind of a token.
type Kind uint8

// The token kinds. A directive is skipped, so it has none.
const (
	StartElement Kind = iota + 1
	EndElement
	CharData
	Comment
	ProcInst
)

// Name is a namespace-translated name: Space is the namespace URI (or an
// unbound prefix as written), empty for none.
type Name struct {
	Space, Local []byte
}

// Attr is one attribute of a start tag, namespace declarations included.
type Attr struct {
	Name  Name
	Value []byte
}

// SyntaxError is a malformed input, found after Offset bytes of it, on Line.
type SyntaxError struct {
	Msg    string
	Offset int64
	Line   int
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("xml: syntax error on line %d: %s", e.Line, e.Msg)
}

const initialBuffer = 64 << 10

// xmlURL is the namespace the xml prefix is bound to.
var xmlURL = []byte("http://www.w3.org/XML/1998/namespace")

// A Scanner reads one XML stream token by token.
type Scanner struct {
	r    io.Reader
	buf  []byte
	mark int   // start of the token being scanned: buf[mark:] survives a refill
	pos  int   // next unread byte
	end  int   // end of the bytes read
	off  int64 // input offset of buf[0]
	nl   int   // newlines in the input before buf[0]
	rerr error // the reader's error (io.EOF at the end), met once buf is drained
	err  error // the first syntax or read error; every later call returns it

	name   Name
	attrs  []Attr
	text   []byte
	target []byte

	scratch []byte    // expanded values of the current token
	raw     []rawAttr // the start tag being scanned

	open      []byte  // raw qualified names of the open elements, concatenated
	frames    []frame // one per open element
	ns        []binding
	closeNext bool // the last start tag was empty: its end element comes next
}

// frame is one open element: where its raw name starts in Scanner.open, and
// how many namespace bindings were in force before its own.
type frame struct {
	name, ns int
}

// binding is one namespace declaration in force; prefix is empty for the
// default namespace.
type binding struct {
	prefix, uri []byte
}

// rawName locates a name in the token being scanned, relative to its mark;
// colon is the index of the prefix separator, or -1 when the name is not
// split (no colon, or one at either end).
type rawName struct {
	start, colon, end int
}

// rawAttr is one attribute of the start tag being scanned: its value is
// buf[mark+vs:mark+ve], or scratch[vs:ve] when it had to be rewritten.
type rawAttr struct {
	name      rawName
	vs, ve    int
	inScratch bool
}

// NewScanner returns a scanner reading r.
func NewScanner(r io.Reader) *Scanner {
	return &Scanner{r: r, buf: make([]byte, initialBuffer)}
}

// Name returns the element name of a StartElement token.
func (s *Scanner) Name() Name { return s.name }

// Attrs returns the attributes of a StartElement token, in document order.
func (s *Scanner) Attrs() []Attr { return s.attrs }

// Text returns the value of a CharData or Comment token, or the instruction
// of a ProcInst token.
func (s *Scanner) Text() []byte { return s.text }

// Target returns the target of a ProcInst token.
func (s *Scanner) Target() []byte { return s.target }

// Depth returns the number of elements open after the current token.
func (s *Scanner) Depth() int { return len(s.frames) }

// InputOffset returns the number of input bytes consumed so far: at the end
// of the input, its length.
func (s *Scanner) InputOffset() int64 { return s.off + int64(s.pos) }

// Next scans the next token and returns its kind; the previous token's
// slices are no longer valid. At the end of a well-formed input it returns
// io.EOF; after an error it returns that error again.
func (s *Scanner) Next() (Kind, error) {
	if s.err != nil {
		return 0, s.err
	}
	if s.closeNext {
		s.closeNext = false
		s.pop()
		return EndElement, nil
	}
	for {
		s.mark = s.pos
		c, ok := s.getc()
		if !ok {
			if s.rerr != io.EOF {
				return 0, s.readFail()
			}
			if len(s.frames) > 0 {
				return 0, s.fail("unexpected EOF")
			}
			return 0, io.EOF
		}
		if c != '<' {
			s.pos--
			return s.charData(modeText)
		}
		if c, ok = s.mustgetc(); !ok {
			return 0, s.err
		}
		switch c {
		case '/':
			return s.endTag()
		case '?':
			return s.procInst()
		case '!':
			if c, ok = s.mustgetc(); !ok {
				return 0, s.err
			}
			switch c {
			case '-':
				if c, ok = s.mustgetc(); !ok {
					return 0, s.err
				}
				if c != '-' {
					return 0, s.fail("invalid sequence <!- not part of <!--")
				}
				return s.comment()
			case '[':
				for i := 0; i < len("CDATA["); i++ {
					if c, ok = s.mustgetc(); !ok {
						return 0, s.err
					}
					if c != "CDATA["[i] {
						return 0, s.fail("invalid <![ sequence")
					}
				}
				return s.charData(modeCDATA)
			}
			if err := s.directive(); err != nil {
				return 0, err
			}
			continue
		}
		s.pos--
		return s.startTag()
	}
}

// fill reads more input behind s.end, keeping buf[s.mark:]: when the buffer
// is full the kept bytes move to its front (s.mark, s.pos and s.end move with
// them), and when they alone fill it, it doubles. It returns false once the
// reader has nothing more.
func (s *Scanner) fill() bool {
	if s.rerr != nil {
		return false
	}
	if s.end == len(s.buf) {
		if s.mark > 0 {
			s.nl += bytes.Count(s.buf[:s.mark], newline)
			s.off += int64(s.mark)
			copy(s.buf, s.buf[s.mark:s.end])
			s.pos -= s.mark
			s.end -= s.mark
			s.mark = 0
		}
		if s.end == len(s.buf) {
			grown := make([]byte, 2*len(s.buf))
			copy(grown, s.buf[:s.end])
			s.buf = grown
		}
	}
	for range 100 {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err != nil {
			s.rerr = err
			return n > 0
		}
		if n > 0 {
			return true
		}
	}
	s.rerr = io.ErrNoProgress
	return false
}

var newline = []byte{'\n'}

// getc returns the next byte, or false at the end of the input.
func (s *Scanner) getc() (byte, bool) {
	if s.pos == s.end && !s.fill() {
		return 0, false
	}
	c := s.buf[s.pos]
	s.pos++
	return c, true
}

// mustgetc is getc where the end of the input is an error, left in s.err.
func (s *Scanner) mustgetc() (byte, bool) {
	c, ok := s.getc()
	if !ok {
		s.eofFail()
	}
	return c, ok
}

// eofFail records an input that ends (or cannot be read) inside a token.
func (s *Scanner) eofFail() error {
	if s.rerr != io.EOF {
		return s.readFail()
	}
	return s.fail("unexpected EOF")
}

func (s *Scanner) readFail() error {
	s.err = fmt.Errorf("xmlscan: read at byte %d: %w", s.InputOffset(), s.rerr)
	return s.err
}

// fail records a syntax error at the current position.
func (s *Scanner) fail(msg string) error {
	s.err = &SyntaxError{
		Msg:    msg,
		Offset: s.InputOffset(),
		Line:   1 + s.nl + bytes.Count(s.buf[:s.pos], newline),
	}
	return s.err
}

// space skips white space.
func (s *Scanner) space() {
	for {
		for s.pos < s.end {
			switch s.buf[s.pos] {
			case ' ', '\r', '\n', '\t':
				s.pos++
			default:
				return
			}
		}
		if !s.fill() {
			return
		}
	}
}

// nameByte marks the bytes a name runs over, as encoding/xml delimits one:
// the ASCII name characters and every byte of a multi-byte rune (isName
// checks those).
var nameByte = func() (t [256]bool) {
	for c := range t {
		t[c] = c >= utf8.RuneSelf || asciiNameChar[c]
	}
	return
}()

// readName scans a name at s.pos. It returns false, consuming nothing and
// recording no error, when no name starts there, and false with s.err set
// when the input ends inside one or the name is invalid.
func (s *Scanner) readName() (start, end int, ok bool) {
	start = s.pos - s.mark
	i := s.pos
	ascii := true
	for {
		for i < s.end && nameByte[s.buf[i]] {
			ascii = ascii && s.buf[i] < utf8.RuneSelf
			i++
		}
		if i < s.end {
			break
		}
		s.pos = i
		if !s.fill() {
			s.eofFail()
			return 0, 0, false
		}
		i = s.pos
	}
	s.pos = i
	if end = i - s.mark; end == start {
		return 0, 0, false
	}
	// An ASCII run of name bytes is a name when its first byte can start one.
	if b := s.buf[s.mark+start : s.mark+end]; ascii && !asciiNameStart[b[0]] || !ascii && !isName(b) {
		s.fail("invalid XML name: " + string(b))
		return 0, 0, false
	}
	return start, end, true
}

// nsName scans a qualified name at s.pos; missing says what was expected
// when there is none.
func (s *Scanner) nsName(missing string) (rawName, bool) {
	start, end, ok := s.readName()
	if !ok {
		if s.err == nil {
			s.fail(missing)
		}
		return rawName{}, false
	}
	n := rawName{start: start, colon: -1, end: end}
	b := s.buf[s.mark+start : s.mark+end]
	i := bytes.IndexByte(b, ':')
	switch {
	case i < 0:
	case bytes.IndexByte(b[i+1:], ':') >= 0:
		s.fail(missing)
		return rawName{}, false
	case i > 0 && i < len(b)-1:
		n.colon = start + i
	}
	return n, true
}

// qname returns the bytes of n, prefix and local part.
func (s *Scanner) qname(n rawName) []byte {
	return s.buf[s.mark+n.start : s.mark+n.end]
}

// split returns n as an untranslated Name.
func (s *Scanner) split(n rawName) Name {
	if n.colon < 0 {
		return Name{Local: s.qname(n)}
	}
	return Name{Space: s.buf[s.mark+n.start : s.mark+n.colon], Local: s.buf[s.mark+n.colon+1 : s.mark+n.end]}
}

func (s *Scanner) startTag() (Kind, error) {
	elem, ok := s.nsName("expected element name after <")
	if !ok {
		return 0, s.err
	}
	s.raw = s.raw[:0]
	s.scratch = s.scratch[:0]
	empty := false
	for {
		s.space()
		c, ok := s.mustgetc()
		if !ok {
			return 0, s.err
		}
		if c == '/' {
			if c, ok = s.mustgetc(); !ok {
				return 0, s.err
			}
			if c != '>' {
				return 0, s.fail("expected /> in element")
			}
			empty = true
			break
		}
		if c == '>' {
			break
		}
		s.pos--
		a := rawAttr{}
		if a.name, ok = s.nsName("expected attribute name in element"); !ok {
			return 0, s.err
		}
		s.space()
		if c, ok = s.mustgetc(); !ok {
			return 0, s.err
		}
		if c != '=' {
			return 0, s.fail("attribute name without = in element")
		}
		s.space()
		if c, ok = s.mustgetc(); !ok {
			return 0, s.err
		}
		if c != '"' && c != '\'' {
			return 0, s.fail("unquoted or missing attribute value in element")
		}
		var err error
		if a.vs, a.ve, a.inScratch, err = s.scanText(modeAttr, c); err != nil {
			return 0, err
		}
		s.raw = append(s.raw, a)
	}

	// The token is whole: its slices stay put until the next call.
	s.attrs = s.attrs[:0]
	for _, a := range s.raw {
		s.attrs = append(s.attrs, Attr{Name: s.split(a.name), Value: s.value(a.vs, a.ve, a.inScratch)})
	}
	s.frames = append(s.frames, frame{name: len(s.open), ns: len(s.ns)})
	s.open = append(s.open, s.qname(elem)...)
	// The declarations of a start tag apply to its own name and attributes,
	// so they are bound before any name is translated.
	for _, a := range s.attrs {
		switch {
		case string(a.Name.Space) == "xmlns":
			s.ns = append(s.ns, binding{prefix: bytes.Clone(a.Name.Local), uri: bytes.Clone(a.Value)})
		case len(a.Name.Space) == 0 && string(a.Name.Local) == "xmlns":
			s.ns = append(s.ns, binding{uri: bytes.Clone(a.Value)})
		}
	}
	s.name = s.translate(s.split(elem), true)
	for i := range s.attrs {
		s.attrs[i].Name = s.translate(s.attrs[i].Name, false)
	}
	s.closeNext = empty
	return StartElement, nil
}

// translate resolves n's prefix as encoding/xml does: the default namespace
// applies only to element names, the xmlns prefix and an element named
// xmlns are left alone, and an unbound prefix stays as written.
func (s *Scanner) translate(n Name, element bool) Name {
	if len(n.Space) == 0 {
		if !element || len(s.ns) == 0 || string(n.Local) == "xmlns" {
			return n
		}
	} else {
		switch string(n.Space) {
		case "xmlns":
			return n
		case "xml":
			n.Space = xmlURL
			return n
		}
	}
	for i := len(s.ns) - 1; i >= 0; i-- {
		if bytes.Equal(s.ns[i].prefix, n.Space) {
			n.Space = s.ns[i].uri
			break
		}
	}
	return n
}

// pop closes the innermost open element and drops its bindings.
func (s *Scanner) pop() {
	f := s.frames[len(s.frames)-1]
	s.frames = s.frames[:len(s.frames)-1]
	s.open = s.open[:f.name]
	s.ns = s.ns[:f.ns]
}

func (s *Scanner) endTag() (Kind, error) {
	n, ok := s.nsName("expected element name after </")
	if !ok {
		return 0, s.err
	}
	s.space()
	c, ok := s.mustgetc()
	if !ok {
		return 0, s.err
	}
	name := s.qname(n)
	if c != '>' {
		return 0, s.fail("invalid characters between </" + string(name) + " and >")
	}
	if len(s.frames) == 0 {
		return 0, s.fail("unexpected end element </" + string(name) + ">")
	}
	if open := s.open[s.frames[len(s.frames)-1].name:]; !bytes.Equal(open, name) {
		return 0, s.fail("element <" + string(open) + "> closed by </" + string(name) + ">")
	}
	s.pop()
	return EndElement, nil
}

func (s *Scanner) procInst() (Kind, error) {
	start, end, ok := s.readName()
	if !ok {
		if s.err == nil {
			s.fail("expected target name after <?")
		}
		return 0, s.err
	}
	s.space()
	from := s.pos - s.mark
	to, ok := s.find("?>")
	if !ok {
		return 0, s.err
	}
	s.target = s.buf[s.mark+start : s.mark+end]
	s.text = s.buf[s.mark+from : s.mark+to]
	if string(s.target) == "xml" {
		content := string(s.text)
		if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
			return 0, s.fail(fmt.Sprintf("unsupported version %q; only version 1.0 is supported", ver))
		}
		if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
			return 0, s.fail(fmt.Sprintf("encoding %q declared; only UTF-8 is read", enc))
		}
	}
	return ProcInst, nil
}

// find consumes the input through the first occurrence of delim, which
// starts at s.pos or later, and returns where it starts, relative to the
// mark.
func (s *Scanner) find(delim string) (int, bool) {
	for {
		if i := bytes.Index(s.buf[s.pos:s.end], []byte(delim)); i >= 0 {
			at := s.pos + i - s.mark
			s.pos += i + len(delim)
			return at, true
		}
		// Keep the tail that could start delim.
		if s.end-s.pos >= len(delim) {
			s.pos = s.end - len(delim) + 1
		}
		if !s.fill() {
			s.pos = s.end
			s.eofFail()
			return 0, false
		}
	}
}

// procInstParam returns the quoted value of param in the content of an xml
// declaration, found the way encoding/xml finds it.
func procInstParam(param, s string) string {
	param += "="
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// comment scans a comment's body after "<!--": it ends at the first "--",
// which must be followed by '>'.
func (s *Scanner) comment() (Kind, error) {
	from := s.pos - s.mark
	to, ok := s.find("--")
	if !ok {
		return 0, s.err
	}
	c, ok := s.mustgetc()
	if !ok {
		return 0, s.err
	}
	if c != '>' {
		return 0, s.fail(`invalid sequence "--" not allowed in comments`)
	}
	s.text = s.buf[s.mark+from : s.mark+to]
	return Comment, nil
}

// charData scans the character data of element content (modeText) or of a
// CDATA section (modeCDATA).
func (s *Scanner) charData(mode int) (Kind, error) {
	s.scratch = s.scratch[:0]
	vs, ve, inScratch, err := s.scanText(mode, 0)
	if err != nil {
		return 0, err
	}
	s.text = s.value(vs, ve, inScratch)
	return CharData, nil
}

// value returns a value scanText located.
func (s *Scanner) value(vs, ve int, inScratch bool) []byte {
	if inScratch {
		return s.scratch[vs:ve]
	}
	return s.buf[s.mark+vs : s.mark+ve]
}

// directive skips a directive after "<!" and its first byte, with
// encoding/xml's rules: quoted '<' and '>' do not nest, and a comment inside
// is skipped whole.
func (s *Scanner) directive() error {
	var inquote byte
	depth := 0
	for {
		c, ok := s.mustgetc()
		if !ok {
			return s.err
		}
		if inquote == 0 && c == '>' && depth == 0 {
			return nil
		}
		for again := true; again; {
			again = false
			switch {
			case c == inquote:
				inquote = 0
			case inquote != 0:
			case c == '\'' || c == '"':
				inquote = c
			case c == '>':
				depth--
			case c == '<':
				for i := 0; i < len("!--"); i++ {
					if c, ok = s.mustgetc(); !ok {
						return s.err
					}
					if c != "!--"[i] {
						// Not a comment: c is looked at afresh.
						depth++
						again = true
						break
					}
				}
				if !again {
					var b0, b1 byte
					for {
						if c, ok = s.mustgetc(); !ok {
							return s.err
						}
						if b0 == '-' && b1 == '-' && c == '>' {
							break
						}
						b0, b1 = b1, c
					}
				}
			}
		}
	}
}

// The places character data is scanned in.
const (
	modeText  = iota // element content, up to the next '<'
	modeCDATA        // a CDATA section, up to "]]>"
	modeAttr         // a quoted attribute value, up to the closing quote
)

// special marks the bytes scanText stops at: the controls other than tab and
// newline (CR among them), the markup and quote characters, and every byte
// of a multi-byte rune, which is decoded and checked.
var special = func() (t [256]bool) {
	for c := range t {
		t[c] = c < 0x20 && c != '\t' && c != '\n' || c >= utf8.RuneSelf
	}
	t['<'], t['&'], t['>'], t['"'], t['\''] = true, true, true, true, true
	return
}()

// scanText scans character data at s.pos in the given mode (quote closes a
// modeAttr value) and consumes its terminator. The value is
// buf[mark+vs:mark+ve], or scratch[vs:ve] if it had a reference or a CR to
// rewrite.
func (s *Scanner) scanText(mode int, quote byte) (vs, ve int, inScratch bool, err error) {
	begin := s.pos - s.mark // first byte of the value
	lit := begin            // start of the bytes not yet copied to scratch
	sbase := len(s.scratch)
	i := s.pos
	stop := -1 // end of the value, relative to the mark
	for stop < 0 {
		for i < s.end && !special[s.buf[i]] {
			i++
		}
		if i == s.end {
			s.pos = i
			ok := s.fill()
			i = s.pos
			if !ok {
				if s.rerr != io.EOF || mode != modeText {
					return 0, 0, false, s.eofFail()
				}
				stop = i - s.mark
				break
			}
			continue
		}
		switch c := s.buf[i]; {
		case c == '<':
			switch mode {
			case modeText:
				stop = i - s.mark
				s.pos = i
			case modeAttr:
				s.pos = i + 1
				return 0, 0, false, s.fail("unescaped < inside quoted string")
			default:
				i++
			}
		case mode == modeAttr && c == quote:
			stop = i - s.mark
			s.pos = i + 1
		case c == '>':
			if mode != modeAttr && i-2 >= s.mark+begin && s.buf[i-1] == ']' && s.buf[i-2] == ']' {
				s.pos = i + 1
				if mode == modeText {
					return 0, 0, false, s.fail("unescaped ]]> not in CDATA section")
				}
				stop = i - 2 - s.mark
				break
			}
			i++
		case c == '&' && mode != modeCDATA:
			inScratch = true
			s.scratch = append(s.scratch, s.buf[s.mark+lit:i]...)
			s.pos = i + 1
			if err := s.reference(); err != nil {
				return 0, 0, false, err
			}
			i = s.pos
			lit = i - s.mark
		case c == '\r':
			inScratch = true
			s.scratch = append(s.scratch, s.buf[s.mark+lit:i]...)
			s.scratch = append(s.scratch, '\n')
			s.pos = i + 1
			if s.pos == s.end {
				s.fill()
			}
			if s.pos < s.end && s.buf[s.pos] == '\n' {
				s.pos++
			}
			i = s.pos
			lit = i - s.mark
		case c < 0x20:
			s.pos = i
			return 0, 0, false, s.fail(fmt.Sprintf("illegal character code %U", rune(c)))
		case c < utf8.RuneSelf: // a quote that does not close anything
			i++
		default:
			for !utf8.FullRune(s.buf[i:s.end]) {
				s.pos = i
				ok := s.fill()
				i = s.pos
				if !ok {
					break
				}
			}
			r, n := utf8.DecodeRune(s.buf[i:s.end])
			if r == utf8.RuneError && n == 1 {
				s.pos = i
				return 0, 0, false, s.fail("invalid UTF-8")
			}
			if !inCharRange(r) {
				s.pos = i
				return 0, 0, false, s.fail(fmt.Sprintf("illegal character code %U", r))
			}
			i += n
		}
	}
	if !inScratch {
		return begin, stop, false, nil
	}
	s.scratch = append(s.scratch, s.buf[s.mark+lit:s.mark+stop]...)
	return sbase, len(s.scratch), true, nil
}

// predefined are the entities XML defines without a declaration.
var predefined = map[string]byte{"lt": '<', "gt": '>', "amp": '&', "apos": '\'', "quot": '"'}

// reference expands the entity or character reference after '&' into
// s.scratch.
func (s *Scanner) reference() error {
	c, ok := s.mustgetc()
	if !ok {
		return s.err
	}
	start := s.pos - 1 - s.mark
	if c == '#' {
		if c, ok = s.mustgetc(); !ok {
			return s.err
		}
		base := rune(10)
		if c == 'x' {
			base = 16
			if c, ok = s.mustgetc(); !ok {
				return s.err
			}
		}
		var r rune
		digits := 0
		for {
			d := digitValue(c)
			if d >= base {
				break
			}
			if r <= utf8.MaxRune {
				r = r*base + d
			}
			digits++
			if c, ok = s.mustgetc(); !ok {
				return s.err
			}
		}
		if c != ';' || digits == 0 || r > utf8.MaxRune {
			return s.badReference(start, c)
		}
		if 0xD800 <= r && r <= 0xDFFF {
			r = utf8.RuneError // as string(rune(r)) makes it
		}
		if !inCharRange(r) {
			return s.fail(fmt.Sprintf("illegal character code %U", r))
		}
		s.scratch = utf8.AppendRune(s.scratch, r)
		return nil
	}
	s.pos--
	for {
		if c, ok = s.mustgetc(); !ok {
			return s.err
		}
		if !nameByte[c] {
			break
		}
	}
	if c != ';' {
		return s.badReference(start, c)
	}
	v, ok := predefined[string(s.buf[s.mark+start:s.pos-1])]
	if !ok {
		return s.badReference(start, c)
	}
	s.scratch = append(s.scratch, v)
	return nil
}

// badReference reports the reference that starts at start (relative to the
// mark) and ends with c, which is consumed only if it is the ';'.
func (s *Scanner) badReference(start int, c byte) error {
	if c != ';' {
		s.pos--
	}
	ent := "&" + string(s.buf[s.mark+start:s.pos])
	if c != ';' {
		ent += " (no semicolon)"
	}
	return s.fail("invalid character entity " + ent)
}

func digitValue(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return 16
}

// inCharRange reports whether r is a Char of XML 1.0 §2.2.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}
