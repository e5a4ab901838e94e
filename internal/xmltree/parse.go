package xmltree

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Parse reads an XML document from r and returns its element tree with
// region labels assigned. Character data, comments, processing instructions
// and attributes are ignored: tree pattern queries (the paper's query model,
// §II) match element structure only.
//
// Parse accepts and rejects exactly what encoding/xml's Decoder does in its
// default mode (Strict, no CharsetReader), and an element's type is the
// local part of its name (<x:a> is an a; the end tag must repeat the start
// tag's name, prefix included). It streams: the input is read through a
// fixed window of at most 64 KiB and never held whole, and a tag name is
// copied only the first time the document uses it. Every error starts with
// "xmltree: parse:" and names the line it was found on; a read error from r
// is wrapped.
func Parse(r io.Reader) (*Document, error) {
	size := 64 << 10
	if l, ok := r.(interface{ Len() int }); ok && l.Len() < size {
		size = l.Len() + 1 // a short input, an /update fragment: one read
	}
	s := &scanner{r: r, buf: make([]byte, size), b: NewBuilder()}
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.b.Document()
}

// ParseString parses an XML document from a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
}

// scanner is Parse's tokenizer: one pass over a refilled window that checks
// what encoding/xml checks and hands elements to a Builder.
type scanner struct {
	r     io.Reader
	buf   []byte // the window
	pos   int    // next unread byte of buf
	end   int    // bytes of buf that hold input
	rerr  error  // what r returned once it stopped (io.EOF at the end)
	lines int    // newlines in the windows already consumed

	b     *Builder
	carry []byte // a name that ran across a refill
	open  []byte // raw names of the open elements, concatenated
	ends  []int  // end of each open element's name in open
	decl  []byte // the data of an <?xml ...?> declaration
}

// fill replaces the consumed window with the next bytes of input. It
// reports false once the input is exhausted or r has failed.
func (s *scanner) fill() bool {
	if s.rerr != nil {
		return false
	}
	s.lines += bytes.Count(s.buf[:s.end], []byte{'\n'})
	s.pos, s.end = 0, 0
	for range 100 { // a reader that keeps returning nothing fails, as in bufio
		s.end, s.rerr = s.r.Read(s.buf)
		if s.end > 0 || s.rerr != nil {
			return s.end > 0
		}
	}
	s.rerr = io.ErrNoProgress
	return false
}

// getc consumes one byte. s.pos-- un-reads it: the byte stays in the
// window until the next fill.
func (s *scanner) getc() (byte, bool) {
	if s.pos == s.end && !s.fill() {
		return 0, false
	}
	c := s.buf[s.pos]
	s.pos++
	return c, true
}

// must is getc where the input may not end.
func (s *scanner) must() (byte, error) {
	c, ok := s.getc()
	if !ok {
		return 0, s.stopped("unexpected EOF")
	}
	return c, nil
}

// stopped is the error for an input that stopped early: r's own error, or
// a syntax error saying msg when r reached its end.
func (s *scanner) stopped(msg string) error {
	if s.rerr != io.EOF {
		return fmt.Errorf("xmltree: parse: line %d: %w", s.line(), s.rerr)
	}
	return s.syntax(msg)
}

func (s *scanner) syntax(msg string) error {
	return fmt.Errorf("xmltree: parse: line %d: %s", s.line(), msg)
}

// line is the 1-based line of the last byte consumed.
func (s *scanner) line() int {
	return 1 + s.lines + bytes.Count(s.buf[:s.pos], []byte{'\n'})
}

// run scans the whole input: character data and markup until the end,
// which must leave no element open.
func (s *scanner) run() error {
	for {
		c, ok := s.getc()
		if !ok {
			if s.rerr != io.EOF || len(s.ends) > 0 {
				return s.stopped("unexpected EOF")
			}
			return nil
		}
		var err error
		if c == '<' {
			err = s.markup()
		} else {
			s.pos--
			err = s.chars(0, false)
		}
		if err != nil {
			return err
		}
	}
}

// markup scans what follows a '<'.
func (s *scanner) markup() error {
	c, err := s.must()
	if err != nil {
		return err
	}
	switch c {
	case '/':
		return s.endTag()
	case '?':
		return s.procInst()
	case '!':
		if c, err = s.must(); err != nil {
			return err
		}
		switch c {
		case '-':
			return s.comment()
		case '[':
			for i := range len("CDATA[") {
				if c, err = s.must(); err != nil {
					return err
				}
				if c != "CDATA["[i] {
					return s.syntax("invalid <![ sequence")
				}
			}
			return s.chars(0, true)
		}
		return s.directive()
	}
	s.pos--
	return s.startTag()
}

// startTag scans a start tag after its '<': the name, then attributes up
// to '>' or "/>". Attribute values are checked like character data.
func (s *scanner) startTag() error {
	raw, err := s.qname("element name after <")
	if err != nil {
		return err
	}
	local := raw
	if i := bytes.IndexByte(raw, ':'); i > 0 && i < len(raw)-1 {
		local = raw[i+1:]
	}
	s.b.beginBytes(local)
	s.open = append(s.open, raw...)
	s.ends = append(s.ends, len(s.open))
	for {
		s.space()
		c, err := s.must()
		if err != nil {
			return err
		}
		switch c {
		case '/':
			if c, err = s.must(); err != nil {
				return err
			}
			if c != '>' {
				return s.syntax("expected /> in element")
			}
			s.closeTop()
			return nil
		case '>':
			return nil
		}
		s.pos--
		if _, err := s.qname("attribute name in element"); err != nil {
			return err
		}
		s.space()
		if c, err = s.must(); err != nil {
			return err
		}
		if c != '=' {
			return s.syntax("attribute name without = in element")
		}
		s.space()
		if c, err = s.must(); err != nil {
			return err
		}
		if c != '"' && c != '\'' {
			return s.syntax("unquoted or missing attribute value in element")
		}
		if err := s.chars(c, false); err != nil {
			return err
		}
	}
}

// endTag scans an end tag after its "</": it must repeat the name of the
// innermost open element.
func (s *scanner) endTag() error {
	raw, err := s.qname("element name after </")
	if err != nil {
		return err
	}
	n := len(s.ends)
	if n == 0 {
		return s.syntax("unexpected end element </" + string(raw) + ">")
	}
	if top := s.open[s.openStart(n-1):]; !bytes.Equal(top, raw) {
		return s.syntax("element <" + string(top) + "> closed by </" + string(raw) + ">")
	}
	s.space()
	c, err := s.must()
	if err != nil {
		return err
	}
	if c != '>' {
		return s.syntax("invalid characters between </" + string(s.open[s.openStart(n-1):]) + " and >")
	}
	s.closeTop()
	return nil
}

func (s *scanner) openStart(i int) int {
	if i == 0 {
		return 0
	}
	return s.ends[i-1]
}

// closeTop ends the innermost open element.
func (s *scanner) closeTop() {
	n := len(s.ends) - 1
	s.open = s.open[:s.openStart(n)]
	s.ends = s.ends[:n]
	s.b.End()
}

// name reads an XML name; what completes the error when there is none.
// The result is valid until the next read.
func (s *scanner) name(what string) ([]byte, error) {
	raw, err := s.readName()
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, s.syntax("expected " + what)
	}
	if !isName(raw) {
		return nil, s.syntax("invalid XML name: " + string(raw))
	}
	return raw, nil
}

// qname reads an element or attribute name: an XML name with at most one
// colon.
func (s *scanner) qname(what string) ([]byte, error) {
	raw, err := s.name(what)
	if err == nil && bytes.Count(raw, []byte{':'}) > 1 {
		return nil, s.syntax("expected " + what)
	}
	return raw, err
}

// nameByte marks the bytes readName takes: ASCII name bytes and every
// byte of a multi-byte UTF-8 sequence (isName checks those).
var nameByte = func() (t [256]bool) {
	for c := range t {
		t[c] = c >= utf8.RuneSelf || 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' ||
			'0' <= c && c <= '9' || c == '_' || c == ':' || c == '.' || c == '-'
	}
	return t
}()

// readName reads the longest run of name bytes; it is empty when the next
// byte cannot be part of a name. The result aliases the window, or s.carry
// when the run crosses a refill, and is valid until the next read.
func (s *scanner) readName() ([]byte, error) {
	start := s.pos
	for i := start; i < s.end; i++ {
		if !nameByte[s.buf[i]] {
			s.pos = i
			return s.buf[start:i], nil
		}
	}
	s.carry = append(s.carry[:0], s.buf[start:s.end]...)
	s.pos = s.end
	for {
		if !s.fill() {
			return nil, s.stopped("unexpected EOF")
		}
		i := 0
		for i < s.end && nameByte[s.buf[i]] {
			i++
		}
		s.carry = append(s.carry, s.buf[:i]...)
		s.pos = i
		if i < s.end {
			return s.carry, nil
		}
	}
}

// isName reports whether b is an XML name: a first character, then name
// characters, all valid UTF-8. readName has already kept out every ASCII
// byte that is not a name byte.
func isName(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	if c := b[0]; c < utf8.RuneSelf {
		if !('A' <= c && c <= 'Z' || 'a' <= c && c <= 'z' || c == '_' || c == ':') {
			return false
		}
		b = b[1:]
	} else {
		r, n := utf8.DecodeRune(b)
		if r == utf8.RuneError && n == 1 || !unicode.Is(first, r) {
			return false
		}
		b = b[n:]
	}
	for len(b) > 0 {
		if b[0] < utf8.RuneSelf {
			b = b[1:]
			continue
		}
		r, n := utf8.DecodeRune(b)
		if r == utf8.RuneError && n == 1 || !unicode.Is(first, r) && !unicode.Is(second, r) {
			return false
		}
		b = b[n:]
	}
	return true
}

// space skips white space.
func (s *scanner) space() {
	for {
		for ; s.pos < s.end; s.pos++ {
			if c := s.buf[s.pos]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
				return
			}
		}
		if !s.fill() {
			return
		}
	}
}

// plain marks the bytes character data passes over without a second look:
// printable ASCII and white space other than the delimiters.
var plain = func() (t [256]bool) {
	for c := range t {
		t[c] = c >= 0x20 && c < utf8.RuneSelf || c == '\t' || c == '\n' || c == '\r'
	}
	for _, c := range `<&]>"'` {
		t[c] = false
	}
	return t
}()

// chars scans character data: element content and top-level text (quote
// and cdata unset), which ends before a '<' or at the end of the input; an
// attribute value, which ends at its quote; or a CDATA section, which ends
// after "]]>". Every character must be valid UTF-8 in the XML Char range,
// references must be to the five predefined entities or a character, and
// "]]>" may appear only to end a CDATA section.
func (s *scanner) chars(quote byte, cdata bool) error {
	brackets := 0 // ']' just before, for "]]>"
	for {
		i := s.pos
		for i < s.end && plain[s.buf[i]] {
			i++
		}
		if i > s.pos {
			s.pos, brackets = i, 0
		}
		c, ok := s.getc()
		switch {
		case !ok:
			if cdata {
				return s.stopped("unexpected EOF in CDATA section")
			}
			if quote != 0 || s.rerr != io.EOF {
				return s.stopped("unexpected EOF")
			}
			return nil
		case c == '>' && quote == 0 && brackets >= 2:
			if cdata {
				return nil
			}
			return s.syntax("unescaped ]]> not in CDATA section")
		case c == '<' && !cdata:
			if quote != 0 {
				return s.syntax("unescaped < inside quoted string")
			}
			s.pos--
			return nil
		case c == quote && quote != 0:
			return nil
		case c == '&' && !cdata:
			if err := s.reference(); err != nil {
				return err
			}
			brackets = 0
			continue
		case c >= utf8.RuneSelf:
			if err := s.multibyte(c); err != nil {
				return err
			}
		case c < 0x20 && c != '\t' && c != '\n' && c != '\r':
			return s.illegal(rune(c))
		}
		if c == ']' {
			brackets++
		} else {
			brackets = 0
		}
	}
}

func (s *scanner) illegal(r rune) error {
	return s.syntax(fmt.Sprintf("illegal character code %U", r))
}

// inCharRange reports whether r is in the XML Char production.
func inCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// multibyte consumes the rest of the UTF-8 sequence that lead, already
// consumed, begins, and checks the character.
func (s *scanner) multibyte(lead byte) error {
	var r rune
	var size int
	if s.end-s.pos >= utf8.UTFMax-1 {
		r, size = utf8.DecodeRune(s.buf[s.pos-1 : s.end])
		s.pos += size - 1
	} else { // the sequence may cross a refill
		p := [utf8.UTFMax]byte{lead}
		n := 1
		for ; n < len(p) && !utf8.FullRune(p[:n]); n++ {
			c, ok := s.getc()
			if !ok {
				if s.rerr != io.EOF {
					return s.stopped("unexpected EOF")
				}
				break
			}
			p[n] = c
		}
		r, size = utf8.DecodeRune(p[:n])
	}
	if r == utf8.RuneError && size == 1 {
		return s.syntax("invalid UTF-8")
	}
	if !inCharRange(r) {
		return s.illegal(r)
	}
	return nil
}

// reference consumes an entity or character reference after its '&'.
// Strict encoding/xml knows no entity beyond the predefined five, even one
// a DOCTYPE declares.
func (s *scanner) reference() error {
	c, err := s.must()
	if err != nil {
		return err
	}
	if c != '#' {
		var name [len("quot")]byte
		n := 0
		for nameByte[c] {
			if n == len(name) {
				return s.syntax("invalid character entity &" + string(name[:]) + "...")
			}
			name[n], n = c, n+1
			if c, err = s.must(); err != nil {
				return err
			}
		}
		switch string(name[:n]) {
		case "lt", "gt", "amp", "apos", "quot":
			if c == ';' {
				return nil
			}
		}
		return s.syntax("invalid character entity &" + string(name[:n]))
	}
	if c, err = s.must(); err != nil {
		return err
	}
	base := rune(10)
	if c == 'x' {
		base = 16
		if c, err = s.must(); err != nil {
			return err
		}
	}
	var v rune
	digits := 0
	for ; ; digits++ {
		d := rune(-1)
		switch {
		case '0' <= c && c <= '9':
			d = rune(c - '0')
		case base == 16 && 'a' <= c && c <= 'f':
			d = rune(c-'a') + 10
		case base == 16 && 'A' <= c && c <= 'F':
			d = rune(c-'A') + 10
		}
		if d < 0 {
			break
		}
		if v = v*base + d; v > unicode.MaxRune {
			v = unicode.MaxRune + 1 // stays out of range, cannot overflow
		}
		if c, err = s.must(); err != nil {
			return err
		}
	}
	if c != ';' || digits == 0 || v > unicode.MaxRune {
		return s.syntax("invalid character reference")
	}
	if 0xD800 <= v && v <= 0xDFFF {
		v = utf8.RuneError // as string(rune(v)) makes it
	}
	if !inCharRange(v) {
		return s.illegal(v)
	}
	return nil
}

// comment scans a comment after its "<!-": "--" may appear only in the
// closing "-->".
func (s *scanner) comment() error {
	c, err := s.must()
	if err != nil {
		return err
	}
	if c != '-' {
		return s.syntax("invalid sequence <!- not part of <!--")
	}
	var b0, b1 byte
	for {
		if c, err = s.must(); err != nil {
			return err
		}
		if b0 == '-' && b1 == '-' {
			if c != '>' {
				return s.syntax(`invalid sequence "--" not allowed in comments`)
			}
			return nil
		}
		b0, b1 = b1, c
	}
}

// procInst scans a processing instruction after its "<?". An XML
// declaration may name only version 1.0 and the UTF-8 encoding.
func (s *scanner) procInst() error {
	target, err := s.name("target name after <?") // colons allowed anywhere
	if err != nil {
		return err
	}
	isDecl := string(target) == "xml"
	s.space()
	s.decl = s.decl[:0]
	var prev byte
	for {
		c, err := s.must()
		if err != nil {
			return err
		}
		if isDecl {
			s.decl = append(s.decl, c)
		}
		if prev == '?' && c == '>' {
			break
		}
		prev = c
	}
	if !isDecl {
		return nil
	}
	data := string(s.decl[:len(s.decl)-2])
	if v := declared("version", data); v != "" && v != "1.0" {
		return s.syntax(fmt.Sprintf("unsupported version %q; only version 1.0 is supported", v))
	}
	if e := declared("encoding", data); e != "" && !strings.EqualFold(e, "utf-8") {
		return s.syntax(fmt.Sprintf("encoding %q declared; only UTF-8 is read", e))
	}
	return nil
}

// declared returns the value an XML declaration's data gives param, or "".
// Like encoding/xml it takes the first param= followed by a quote, found by
// substring search.
func declared(param, data string) string {
	param += "="
	i := 0
	var quote byte
	for i < len(data) {
		sub := data[i:]
		k := strings.Index(sub, param)
		if k < 0 || len(param)+k >= len(sub) {
			return ""
		}
		i += len(param) + k + 1
		if c := sub[len(param)+k]; c == '\'' || c == '"' {
			quote = c
			break
		}
	}
	if quote == 0 {
		return ""
	}
	j := strings.IndexByte(data[i:], quote)
	if j < 0 {
		return ""
	}
	return data[i : i+j]
}

// directive skips a directive such as <!DOCTYPE ...> after its "<!" and
// first byte, which takes no part in the nesting: the directive ends at the
// first '>' outside quotes and outside the '<' '>' pairs it nests, and
// holds comments, inside which nothing counts.
func (s *scanner) directive() error {
	var quote byte
	depth := 0
	for {
		c, err := s.must()
		if err != nil {
			return err
		}
		if quote == 0 && c == '>' && depth == 0 {
			return nil
		}
		for again := true; again; {
			again = false
			switch {
			case c == quote:
				quote = 0
			case quote != 0:
			case c == '\'' || c == '"':
				quote = c
			case c == '>':
				depth--
			case c == '<':
				// "<!--" opens a comment; any other byte after a '<' is
				// looked at again, the '<' counting as a nesting level.
				for i := range len("!--") {
					if c, err = s.must(); err != nil {
						return err
					}
					if c != "!--"[i] {
						depth++
						again = true
						break
					}
				}
				if !again {
					if err := s.directiveComment(); err != nil {
						return err
					}
				}
			}
		}
	}
}

// directiveComment skips a comment inside a directive up to its "-->".
func (s *scanner) directiveComment() error {
	var b0, b1 byte
	for {
		c, err := s.must()
		if err != nil {
			return err
		}
		if b0 == '-' && b1 == '-' && c == '>' {
			return nil
		}
		b0, b1 = b1, c
	}
}

// indent is the shared source of Write's indentation prefixes.
var indent = strings.Repeat(" ", 128)

// Write serializes the document's element structure as XML (tags only, with
// two-space indentation). The output round-trips through Parse to an
// identical document.
func Write(w io.Writer, d *Document) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	pad := func(depth int) {
		for n := 2 * depth; n > 0; n -= len(indent) {
			bw.WriteString(indent[:min(n, len(indent))])
		}
	}
	// open holds the ancestors of the next node, innermost last: a node is
	// inside the top one while it starts before that one ends.
	var open []Node
	closeTo := func(start int32) {
		for len(open) > 0 && open[len(open)-1].End < start {
			top := open[len(open)-1]
			open = open[:len(open)-1]
			pad(len(open))
			bw.WriteString("</")
			bw.WriteString(d.TypeName(top.Type))
			bw.WriteString(">\n")
		}
	}
	n := d.NumNodes()
	for id := range n {
		nd := d.Node(NodeID(id))
		closeTo(nd.Start)
		pad(len(open))
		bw.WriteByte('<')
		bw.WriteString(d.TypeName(nd.Type))
		if id+1 < n && d.Node(NodeID(id+1)).Start < nd.End {
			bw.WriteString(">\n")
			open = append(open, nd)
		} else {
			bw.WriteString("/>\n")
		}
	}
	closeTo(math.MaxInt32)
	return bw.Flush()
}
