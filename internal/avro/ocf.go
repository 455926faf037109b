package avro

import (
	"bufio"
	"bytes"
	"compress/flate"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// Codec names an OCF block compression codec.
type Codec string

// Supported codecs.
const (
	CodecNull    Codec = "null"
	CodecDeflate Codec = "deflate"
)

var magic = []byte{'O', 'b', 'j', 1}

// Writer produces an Avro Object Container File: header with schema and
// codec metadata, then compressed blocks separated by a sync marker. It
// keeps one compressor and its block buffers for the life of the file.
type Writer struct {
	w         io.Writer
	schema    Schema
	codec     Codec
	sync      [16]byte
	buf       []byte       // the current block's encoded records
	zbuf      bytes.Buffer // the current block compressed
	fw        *flate.Writer
	out       []byte // one framed block (or the header), written in one call
	count     int64
	blockRows int
	wroteHdr  bool
	err       error
}

// NewWriter creates an OCF writer. blockRows is the number of rows per block
// (0 uses a default of 4096).
func NewWriter(w io.Writer, schema Schema, codec Codec, blockRows int) (*Writer, error) {
	switch codec {
	case CodecNull, CodecDeflate:
	default:
		return nil, fmt.Errorf("avro: unsupported codec %q", codec)
	}
	if blockRows <= 0 {
		blockRows = 4096
	}
	ww := &Writer{w: w, schema: schema, codec: codec, blockRows: blockRows}
	if _, err := rand.Read(ww.sync[:]); err != nil {
		return nil, err
	}
	return ww, nil
}

func (w *Writer) writeHeader() error {
	if w.wroteHdr {
		return nil
	}
	schemaJSON, err := json.Marshal(w.schema)
	if err != nil {
		return err
	}
	b := append(w.out[:0], magic...)
	// Metadata map: one block of 2 entries, then end-of-map.
	b = appendLong(b, 2)
	for _, kv := range [][2][]byte{
		{[]byte("avro.schema"), schemaJSON},
		{[]byte("avro.codec"), []byte(w.codec)},
	} {
		b = appendLong(b, int64(len(kv[0])))
		b = append(b, kv[0]...)
		b = appendLong(b, int64(len(kv[1])))
		b = append(b, kv[1]...)
	}
	b = appendLong(b, 0)
	b = append(b, w.sync[:]...)
	w.out = b
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.wroteHdr = true
	return nil
}

// Append encodes one row into the current block.
func (w *Writer) Append(r types.Row) error {
	if w.err != nil {
		return w.err
	}
	buf, err := EncodeRow(w.buf, r, w.schema)
	if err != nil {
		w.err = err
		return err
	}
	w.buf = buf
	w.count++
	if int(w.count)%w.blockRows == 0 {
		return w.flushBlock()
	}
	return nil
}

func (w *Writer) flushBlock() error {
	if w.count == 0 || len(w.buf) == 0 {
		return nil
	}
	if err := w.writeHeader(); err != nil {
		w.err = err
		return err
	}
	data := w.buf
	if w.codec == CodecDeflate {
		if err := w.deflate(data); err != nil {
			w.err = err
			return err
		}
		data = w.zbuf.Bytes()
	}
	b := appendLong(w.out[:0], w.count)
	b = appendLong(b, int64(len(data)))
	b = append(b, data...)
	b = append(b, w.sync[:]...)
	w.out = b
	if _, err := w.w.Write(b); err != nil {
		w.err = err
		return err
	}
	w.buf = w.buf[:0]
	w.count = 0
	return nil
}

// deflate compresses one block into zbuf, reusing the writer's compressor.
func (w *Writer) deflate(data []byte) error {
	w.zbuf.Reset()
	if w.fw == nil {
		fw, err := flate.NewWriter(&w.zbuf, flate.DefaultCompression)
		if err != nil {
			return err
		}
		w.fw = fw
	} else {
		w.fw.Reset(&w.zbuf)
	}
	if _, err := w.fw.Write(data); err != nil {
		return err
	}
	return w.fw.Close()
}

// Close flushes the final block (and the header, so empty files are valid).
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if err := w.writeHeader(); err != nil {
		return err
	}
	return w.flushBlock()
}

// Reader consumes an Avro Object Container File block by block, decoding
// each block's records straight into column builders. It keeps one
// inflater and its block buffers for the life of the file. It never
// allocates ahead of the bytes that have arrived, and a stream that ends
// anywhere but a block boundary fails with io.ErrUnexpectedEOF.
type Reader struct {
	br     *bufio.Reader
	schema Schema
	codec  Codec
	sync   [16]byte

	raw      []byte        // the current block as it arrived
	src      bytes.Reader  // raw, as the inflater's input
	inflated bytes.Buffer  // raw decompressed (deflate codec)
	fr       io.ReadCloser // the inflater, reset per block
}

// NewReader parses the OCF header.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReader(r)
	var head [4]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("avro: short magic: %w", err)
	}
	if !bytes.Equal(head[:], magic) {
		return nil, fmt.Errorf("avro: bad magic %v", head)
	}
	rd := &Reader{br: br, codec: CodecNull}
	for {
		n, err := rd.long()
		if err != nil {
			return nil, fmt.Errorf("avro: header: %w", err)
		}
		if n == 0 {
			break
		}
		if n < 0 { // negative count: size follows, per spec
			n = -n
			if _, err := rd.long(); err != nil {
				return nil, fmt.Errorf("avro: header: %w", err)
			}
		}
		for i := int64(0); i < n; i++ {
			key, err := rd.bytesField()
			if err != nil {
				return nil, err
			}
			val, err := rd.bytesField()
			if err != nil {
				return nil, err
			}
			switch string(key) {
			case "avro.schema":
				s, err := ParseSchema(val)
				if err != nil {
					return nil, err
				}
				rd.schema = s
			case "avro.codec":
				rd.codec = Codec(val)
			}
		}
	}
	if _, err := io.ReadFull(br, rd.sync[:]); err != nil {
		return nil, fmt.Errorf("avro: header sync: %w", noEOF(err))
	}
	if len(rd.schema.Fields) == 0 {
		return nil, fmt.Errorf("avro: file has no schema")
	}
	switch rd.codec {
	case CodecNull, CodecDeflate:
	default:
		return nil, fmt.Errorf("avro: unsupported codec %q", rd.codec)
	}
	return rd, nil
}

// noEOF turns a clean end of input into io.ErrUnexpectedEOF, for reads
// that cannot legally end the stream.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// long reads an Avro long that must be present.
func (r *Reader) long() (int64, error) {
	v, err := readLong(r.br)
	return v, noEOF(err)
}

// fill reads exactly n bytes into dst's backing array, growing it only as
// bytes arrive: a length field claiming more than the stream holds fails
// with io.ErrUnexpectedEOF after allocating about what was actually sent.
func (r *Reader) fill(dst []byte, n int64) ([]byte, error) {
	const step = 64 << 10
	dst = dst[:0]
	for int64(len(dst)) < n {
		chunk := int(min(n-int64(len(dst)), int64(max(len(dst), step))))
		dst = slices.Grow(dst, chunk)
		got, err := io.ReadFull(r.br, dst[len(dst):len(dst)+chunk])
		dst = dst[:len(dst)+got]
		if err != nil {
			return dst, noEOF(err)
		}
	}
	return dst, nil
}

func (r *Reader) bytesField() ([]byte, error) {
	n, err := r.long()
	if err != nil {
		return nil, fmt.Errorf("avro: header: %w", err)
	}
	if n < 0 {
		return nil, fmt.Errorf("avro: bad bytes length %d", n)
	}
	b, err := r.fill(nil, n)
	if err != nil {
		return nil, fmt.Errorf("avro: header: %w", err)
	}
	return b, nil
}

// Schema returns the file's record schema.
func (r *Reader) Schema() Schema { return r.schema }

// ReadBlock decodes the next block, appending field i of each record to
// cols[i] (builders of the fields' types, as storage.NewBuilders makes
// from Schema.ToTypes), and returns how many records it held.
// It returns io.EOF once the stream ends cleanly after a block. On any
// other error cols may hold part of the failed block.
func (r *Reader) ReadBlock(cols []*storage.Builder) (int, error) {
	count, err := readLong(r.br)
	if err == io.EOF {
		return 0, io.EOF
	}
	if err != nil {
		return 0, fmt.Errorf("avro: block count: %w", noEOF(err))
	}
	size, err := r.long()
	if err != nil {
		return 0, fmt.Errorf("avro: block size: %w", err)
	}
	if count < 0 || size < 0 {
		return 0, fmt.Errorf("avro: bad block header (%d records, %d bytes)", count, size)
	}
	if r.raw, err = r.fill(r.raw, size); err != nil {
		return 0, fmt.Errorf("avro: block data: %w", err)
	}
	var sync [16]byte
	if _, err := io.ReadFull(r.br, sync[:]); err != nil {
		return 0, fmt.Errorf("avro: block sync: %w", noEOF(err))
	}
	if sync != r.sync {
		return 0, fmt.Errorf("avro: sync marker mismatch")
	}
	data := r.raw
	if r.codec == CodecDeflate {
		if data, err = r.inflate(data); err != nil {
			return 0, fmt.Errorf("avro: deflate: %w", err)
		}
	}
	if err := decodeRecords(data, count, r.schema, cols); err != nil {
		return 0, err
	}
	return int(count), nil
}

// inflate decompresses one block, reusing the reader's inflater and output
// buffer.
func (r *Reader) inflate(data []byte) ([]byte, error) {
	r.src.Reset(data)
	if r.fr == nil {
		r.fr = flate.NewReader(&r.src)
	} else if err := r.fr.(flate.Resetter).Reset(&r.src, nil); err != nil {
		return nil, err
	}
	r.inflated.Reset()
	if _, err := r.inflated.ReadFrom(r.fr); err != nil {
		return nil, err
	}
	return r.inflated.Bytes(), nil
}
