package avro

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"vsfabric/internal/storage"
	"vsfabric/internal/types"
)

// zigzag encodes a signed integer the Avro way.
func zigzag(v int64) uint64 { return uint64((v << 1) ^ (v >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendLong appends an Avro long (zigzag varint).
func appendLong(buf []byte, v int64) []byte { return binary.AppendUvarint(buf, zigzag(v)) }

// readLong reads an Avro long.
func readLong(r io.ByteReader) (int64, error) {
	u, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, err
	}
	return unzigzag(u), nil
}

// EncodeRow appends the Avro binary encoding of a row (each field a
// ["null", primitive] union) to buf and returns the extended buffer.
func EncodeRow(buf []byte, r types.Row, s Schema) ([]byte, error) {
	if len(r) != len(s.Fields) {
		return nil, fmt.Errorf("avro: row has %d fields, schema has %d", len(r), len(s.Fields))
	}
	for i, f := range s.Fields {
		v := r[i]
		if v.Null {
			buf = append(buf, 0) // union branch 0: null
			continue
		}
		buf = append(buf, 2) // union branch 1 (zigzag): value
		switch f.Type {
		case types.Int64:
			buf = appendLong(buf, v.AsInt())
		case types.Float64:
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v.AsFloat()))
		case types.Varchar:
			buf = appendLong(buf, int64(len(v.S)))
			buf = append(buf, v.S...)
		case types.Bool:
			if v.AsBool() {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
		default:
			return nil, fmt.Errorf("avro: unsupported field type %v", f.Type)
		}
	}
	return buf, nil
}

// decodeRecords decodes exactly count records from one block's data,
// appending field i of each to cols[i]. The block must hold nothing else.
// Every length is checked against the bytes left before it is used.
func decodeRecords(data []byte, count int64, s Schema, cols []*storage.Builder) error {
	// Each field takes at least its one-byte union branch.
	if nf := int64(len(s.Fields)); count < 0 || count > int64(len(data))/nf {
		return fmt.Errorf("avro: block claims %d records in %d bytes", count, len(data))
	}
	p := 0
	long := func() (int64, bool) {
		u, n := binary.Uvarint(data[p:])
		if n <= 0 {
			return 0, false
		}
		p += n
		return unzigzag(u), true
	}
	for k := int64(0); k < count; k++ {
		for i, f := range s.Fields {
			branch, ok := long()
			if !ok {
				return fmt.Errorf("avro: record %d field %q: %w", k, f.Name, io.ErrUnexpectedEOF)
			}
			switch branch {
			case 0:
				cols[i].AppendNull()
				continue
			case 1:
			default:
				return fmt.Errorf("avro: field %q: bad union branch %d", f.Name, branch)
			}
			switch f.Type {
			case types.Int64:
				v, ok := long()
				if !ok {
					return fmt.Errorf("avro: record %d field %q: bad long", k, f.Name)
				}
				cols[i].AppendInt(v)
			case types.Float64:
				if len(data)-p < 8 {
					return fmt.Errorf("avro: record %d field %q: %w", k, f.Name, io.ErrUnexpectedEOF)
				}
				cols[i].AppendFloat(math.Float64frombits(binary.LittleEndian.Uint64(data[p:])))
				p += 8
			case types.Varchar:
				n, ok := long()
				if !ok || n < 0 || n > int64(len(data)-p) {
					return fmt.Errorf("avro: record %d field %q: bad string length %d with %d bytes left", k, f.Name, n, len(data)-p)
				}
				cols[i].AppendString(string(data[p : p+int(n)]))
				p += int(n)
			case types.Bool:
				if p >= len(data) {
					return fmt.Errorf("avro: record %d field %q: %w", k, f.Name, io.ErrUnexpectedEOF)
				}
				cols[i].AppendBool(data[p] != 0)
				p++
			default:
				return fmt.Errorf("avro: unsupported field type %v", f.Type)
			}
		}
	}
	if p != len(data) {
		return fmt.Errorf("avro: block holds %d bytes past its %d records", len(data)-p, count)
	}
	return nil
}
