package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"vsfabric/internal/types"
)

// Encoding identifies how a column vector is serialized on "disk" (ROS spill,
// colfile column chunks). The set follows the C-Store/Vertica families the
// paper's storage layer is built on.
type Encoding byte

// Supported column encodings.
const (
	// EncPlain stores values verbatim: fixed 8-byte ints/floats, 1-byte
	// bools, length-prefixed strings.
	EncPlain Encoding = iota
	// EncRLE stores (runLength, value) pairs; ideal for sorted or
	// low-cardinality columns.
	EncRLE
	// EncDeltaVarint stores int64s as zigzag-varint deltas from the previous
	// value; ideal for monotonically increasing ids.
	EncDeltaVarint
	// EncDict stores a string dictionary plus varint codes; ideal for
	// repetitive strings.
	EncDict
)

func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "PLAIN"
	case EncRLE:
		return "RLE"
	case EncDeltaVarint:
		return "DELTA"
	case EncDict:
		return "DICT"
	default:
		return "?"
	}
}

// ChooseEncoding inspects a column and picks a reasonable encoding, the way
// the database's write path would.
func ChooseEncoding(c Column) Encoding {
	n := c.Len()
	if n == 0 {
		return EncPlain
	}
	switch col := c.(type) {
	case *Int64RLEColumn:
		return EncRLE
	case *Int64Column:
		runs, sorted := 1, true
		for i := 1; i < n; i++ {
			if col.Vals[i] != col.Vals[i-1] {
				runs++
			}
			if col.Vals[i] < col.Vals[i-1] {
				sorted = false
			}
		}
		if runs*4 < n {
			return EncRLE
		}
		if sorted {
			return EncDeltaVarint
		}
		return EncPlain
	case *StringColumn:
		distinct := make(map[string]struct{}, 64)
		for _, s := range col.Vals {
			distinct[s] = struct{}{}
			if len(distinct) > n/4+1 || len(distinct) > 1<<16 {
				return EncPlain
			}
		}
		return EncDict
	case *BoolColumn:
		return EncRLE
	default:
		return EncPlain
	}
}

// EncodeColumn serializes a column with the given encoding. The layout is:
// [type byte][encoding byte][varint rowCount][null bitmap?][payload].
func EncodeColumn(c Column, enc Encoding) ([]byte, error) {
	c = Densify(c) // the wire encoders type-switch on the dense column set
	var buf bytes.Buffer
	buf.Grow(encodedSize(c, enc))
	buf.WriteByte(byte(c.Type()))
	buf.WriteByte(byte(enc))
	writeUvarint(&buf, uint64(c.Len()))
	writeNulls(&buf, c)
	var err error
	switch enc {
	case EncPlain:
		err = encodePlain(&buf, c)
	case EncRLE:
		err = encodeRLE(&buf, c)
	case EncDeltaVarint:
		err = encodeDelta(&buf, c)
	case EncDict:
		err = encodeDict(&buf, c)
	default:
		err = fmt.Errorf("storage: unknown encoding %d", enc)
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// encodedSize bounds EncodeColumn's output, counting the null bitmap
// whether or not the column needs one: exactly for plain and delta, by the
// plain size for dict (chosen only when its codes are shorter). RLE, chosen
// only for few-run columns, gets just the header. EncodeColumn reserves it
// up front, so its buffer is allocated once rather than grown by doubling.
func encodedSize(c Column, enc Encoding) int {
	n := c.Len()
	size := 2 + uvarintLen(uint64(n)) + 1 + (n+7)/8
	if enc == EncRLE {
		return size
	}
	switch col := c.(type) {
	case *Int64Column:
		if enc != EncDeltaVarint {
			return size + 8*n
		}
		prev := int64(0)
		for _, v := range col.Vals {
			size += varintLen(v - prev)
			prev = v
		}
		return size
	case *Float64Column:
		return size + 8*n
	case *StringColumn:
		for _, v := range col.Vals {
			size += uvarintLen(uint64(len(v))) + len(v)
		}
		return size
	default:
		return size + n
	}
}

// uvarintLen is the length of binary.PutUvarint's encoding of v.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// varintLen is the length of binary.PutVarint's encoding of v.
func varintLen(v int64) int {
	return uvarintLen(uint64(v<<1) ^ uint64(v>>63))
}

// maxDecodeRows bounds every row count a decoder accepts: batches address
// rows through int32 selection vectors, so no container, batch or payload
// can hold more.
const maxDecodeRows = math.MaxInt32

// DecodeColumn deserializes a column produced by EncodeColumn.
func DecodeColumn(data []byte) (Column, error) {
	return decodeColumn(data, -1)
}

// decodeColumn is DecodeColumn for a column whose row count the caller
// already knows (want >= 0): a chunk claiming any other count is rejected
// before anything is allocated for it.
func decodeColumn(data []byte, want int) (Column, error) {
	r := bytes.NewReader(data)
	tb, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("storage: short column header: %w", err)
	}
	eb, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("storage: short column header: %w", err)
	}
	t, enc := types.Type(tb), Encoding(eb)
	n64, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("storage: bad row count: %w", err)
	}
	if want >= 0 && n64 != uint64(want) {
		return nil, fmt.Errorf("storage: column has %d rows, want %d", n64, want)
	}
	// Every encoding but RLE spends at least minRowBytes per row; RLE
	// appends run by run instead of allocating the claimed count up front.
	if n64 > maxDecodeRows || n64*uint64(minRowBytes(t, enc)) > uint64(r.Len()) {
		return nil, fmt.Errorf("storage: %d-row %v column in %d bytes", n64, enc, r.Len())
	}
	n := int(n64)
	nulls, err := readNulls(r, n)
	if err != nil {
		return nil, err
	}
	switch enc {
	case EncPlain:
		return decodePlain(r, t, n, nulls)
	case EncRLE:
		return decodeRLE(r, t, n, nulls)
	case EncDeltaVarint:
		return decodeDelta(r, t, n, nulls)
	case EncDict:
		return decodeDict(r, t, n, nulls)
	default:
		return nil, fmt.Errorf("storage: unknown encoding %d", enc)
	}
}

// minRowBytes is the fewest payload bytes one row of a t column occupies
// under enc (0 when runs can cover any number of rows).
func minRowBytes(t types.Type, enc Encoding) int {
	switch {
	case enc == EncRLE:
		return 0
	case enc == EncPlain && (t == types.Int64 || t == types.Float64):
		return 8
	default:
		return 1
	}
}

// readBytes reads a uvarint length prefix and that many bytes, rejecting a
// length longer than what is left of the input.
func readBytes(r *bytes.Reader) ([]byte, error) {
	ln, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if ln > uint64(r.Len()) {
		return nil, fmt.Errorf("storage: length prefix %d exceeds the %d bytes left", ln, r.Len())
	}
	b := make([]byte, ln)
	if _, err := readFull(r, b); err != nil {
		return nil, err
	}
	return b, nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func writeVarint(buf *bytes.Buffer, v int64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutVarint(tmp[:], v)])
}

// writeNulls writes a presence marker byte followed by a packed bitmap when
// the column contains NULLs.
func writeNulls(buf *bytes.Buffer, c Column) {
	n := c.Len()
	any := false
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			any = true
			break
		}
	}
	if !any {
		buf.WriteByte(0)
		return
	}
	buf.WriteByte(1)
	bitmap := make([]byte, (n+7)/8)
	for i := 0; i < n; i++ {
		if c.IsNull(i) {
			bitmap[i/8] |= 1 << uint(i%8)
		}
	}
	buf.Write(bitmap)
}

func readNulls(r *bytes.Reader, n int) ([]bool, error) {
	marker, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("storage: short null marker: %w", err)
	}
	if marker == 0 {
		return nil, nil
	}
	if (n+7)/8 > r.Len() {
		return nil, fmt.Errorf("storage: %d-row null bitmap in %d bytes", n, r.Len())
	}
	bitmap := make([]byte, (n+7)/8)
	if _, err := readFull(r, bitmap); err != nil {
		return nil, fmt.Errorf("storage: short null bitmap: %w", err)
	}
	nulls := make([]bool, n)
	for i := 0; i < n; i++ {
		nulls[i] = bitmap[i/8]&(1<<uint(i%8)) != 0
	}
	return nulls, nil
}

func readFull(r *bytes.Reader, p []byte) (int, error) {
	total := 0
	for total < len(p) {
		n, err := r.Read(p[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func encodePlain(buf *bytes.Buffer, c Column) error {
	n := c.Len()
	switch col := c.(type) {
	case *Int64Column:
		b := buf.AvailableBuffer()
		for _, v := range col.Vals {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		buf.Write(b)
	case *Float64Column:
		b := buf.AvailableBuffer()
		for _, v := range col.Vals {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		buf.Write(b)
	case *StringColumn:
		for i := 0; i < n; i++ {
			writeUvarint(buf, uint64(len(col.Vals[i])))
			buf.WriteString(col.Vals[i])
		}
	case *BoolColumn:
		for i := 0; i < n; i++ {
			if col.Vals[i] {
				buf.WriteByte(1)
			} else {
				buf.WriteByte(0)
			}
		}
	default:
		return fmt.Errorf("storage: plain encoding unsupported for %T", c)
	}
	return nil
}

func decodePlain(r *bytes.Reader, t types.Type, n int, nulls []bool) (Column, error) {
	var tmp [8]byte
	switch t {
	case types.Int64:
		vals := make([]int64, n)
		for i := range vals {
			if _, err := readFull(r, tmp[:]); err != nil {
				return nil, err
			}
			vals[i] = int64(binary.LittleEndian.Uint64(tmp[:]))
		}
		return &Int64Column{Vals: vals, Nulls: nulls}, nil
	case types.Float64:
		vals := make([]float64, n)
		for i := range vals {
			if _, err := readFull(r, tmp[:]); err != nil {
				return nil, err
			}
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(tmp[:]))
		}
		return &Float64Column{Vals: vals, Nulls: nulls}, nil
	case types.Varchar:
		vals := make([]string, n)
		for i := range vals {
			b, err := readBytes(r)
			if err != nil {
				return nil, err
			}
			vals[i] = string(b)
		}
		return &StringColumn{Vals: vals, Nulls: nulls}, nil
	case types.Bool:
		vals := make([]bool, n)
		for i := range vals {
			b, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			vals[i] = b != 0
		}
		return &BoolColumn{Vals: vals, Nulls: nulls}, nil
	default:
		return nil, fmt.Errorf("storage: plain decoding unsupported for %v", t)
	}
}

// encodeRLE writes (varint runLength, value) pairs. NULL participates in runs
// via the bitmap, so values at NULL positions are encoded as the zero value.
func encodeRLE(buf *bytes.Buffer, c Column) error {
	n := c.Len()
	i := 0
	for i < n {
		j := i + 1
		for j < n && sameRun(c, i, j) {
			j++
		}
		writeUvarint(buf, uint64(j-i))
		switch col := c.(type) {
		case *Int64Column:
			writeVarint(buf, col.Vals[i])
		case *Float64Column:
			var tmp [8]byte
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(col.Vals[i]))
			buf.Write(tmp[:])
		case *StringColumn:
			writeUvarint(buf, uint64(len(col.Vals[i])))
			buf.WriteString(col.Vals[i])
		case *BoolColumn:
			if col.Vals[i] {
				buf.WriteByte(1)
			} else {
				buf.WriteByte(0)
			}
		default:
			return fmt.Errorf("storage: RLE encoding unsupported for %T", c)
		}
		i = j
	}
	return nil
}

func sameRun(c Column, i, j int) bool {
	switch col := c.(type) {
	case *Int64Column:
		return col.Vals[i] == col.Vals[j]
	case *Float64Column:
		return math.Float64bits(col.Vals[i]) == math.Float64bits(col.Vals[j])
	case *StringColumn:
		return col.Vals[i] == col.Vals[j]
	case *BoolColumn:
		return col.Vals[i] == col.Vals[j]
	default:
		return false
	}
}

func decodeRLE(r *bytes.Reader, t types.Type, n int, nulls []bool) (Column, error) {
	read := 0
	var intVals []int64
	var floatVals []float64
	var strVals []string
	var boolVals []bool
	for read < n {
		run, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if run == 0 || run > uint64(n-read) {
			return nil, fmt.Errorf("storage: bad RLE run length %d at row %d/%d", run, read, n)
		}
		switch t {
		case types.Int64:
			v, err := binary.ReadVarint(r)
			if err != nil {
				return nil, err
			}
			for k := 0; k < int(run); k++ {
				intVals = append(intVals, v)
			}
		case types.Float64:
			var tmp [8]byte
			if _, err := readFull(r, tmp[:]); err != nil {
				return nil, err
			}
			v := math.Float64frombits(binary.LittleEndian.Uint64(tmp[:]))
			for k := 0; k < int(run); k++ {
				floatVals = append(floatVals, v)
			}
		case types.Varchar:
			b, err := readBytes(r)
			if err != nil {
				return nil, err
			}
			for k := 0; k < int(run); k++ {
				strVals = append(strVals, string(b))
			}
		case types.Bool:
			bb, err := r.ReadByte()
			if err != nil {
				return nil, err
			}
			for k := 0; k < int(run); k++ {
				boolVals = append(boolVals, bb != 0)
			}
		default:
			return nil, fmt.Errorf("storage: RLE decoding unsupported for %v", t)
		}
		read += int(run)
	}
	switch t {
	case types.Int64:
		return &Int64Column{Vals: intVals, Nulls: nulls}, nil
	case types.Float64:
		return &Float64Column{Vals: floatVals, Nulls: nulls}, nil
	case types.Varchar:
		return &StringColumn{Vals: strVals, Nulls: nulls}, nil
	default:
		return &BoolColumn{Vals: boolVals, Nulls: nulls}, nil
	}
}

func encodeDelta(buf *bytes.Buffer, c Column) error {
	col, ok := c.(*Int64Column)
	if !ok {
		return fmt.Errorf("storage: delta encoding requires INTEGER column, got %T", c)
	}
	prev := int64(0)
	for _, v := range col.Vals {
		writeVarint(buf, v-prev)
		prev = v
	}
	return nil
}

func decodeDelta(r *bytes.Reader, t types.Type, n int, nulls []bool) (Column, error) {
	if t != types.Int64 {
		return nil, fmt.Errorf("storage: delta decoding requires INTEGER, got %v", t)
	}
	vals := make([]int64, n)
	prev := int64(0)
	for i := range vals {
		d, err := binary.ReadVarint(r)
		if err != nil {
			return nil, err
		}
		prev += d
		vals[i] = prev
	}
	return &Int64Column{Vals: vals, Nulls: nulls}, nil
}

func encodeDict(buf *bytes.Buffer, c Column) error {
	col, ok := c.(*StringColumn)
	if !ok {
		return fmt.Errorf("storage: dict encoding requires VARCHAR column, got %T", c)
	}
	codes := make(map[string]uint64, 64)
	var dict []string
	for _, s := range col.Vals {
		if _, ok := codes[s]; !ok {
			codes[s] = uint64(len(dict))
			dict = append(dict, s)
		}
	}
	writeUvarint(buf, uint64(len(dict)))
	for _, s := range dict {
		writeUvarint(buf, uint64(len(s)))
		buf.WriteString(s)
	}
	for _, s := range col.Vals {
		writeUvarint(buf, codes[s])
	}
	return nil
}

func decodeDict(r *bytes.Reader, t types.Type, n int, nulls []bool) (Column, error) {
	if t != types.Varchar {
		return nil, fmt.Errorf("storage: dict decoding requires VARCHAR, got %v", t)
	}
	dn, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	// Each dictionary entry takes at least its one-byte length prefix.
	if dn > uint64(r.Len()) {
		return nil, fmt.Errorf("storage: %d dictionary entries in %d bytes", dn, r.Len())
	}
	dict := make([]string, dn)
	for i := range dict {
		b, err := readBytes(r)
		if err != nil {
			return nil, err
		}
		dict[i] = string(b)
	}
	vals := make([]string, n)
	for i := range vals {
		code, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, err
		}
		if code >= dn {
			return nil, fmt.Errorf("storage: dict code %d out of range %d", code, dn)
		}
		vals[i] = dict[code]
	}
	return &StringColumn{Vals: vals, Nulls: nulls}, nil
}
