package atomicwrite

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// ErrCorrupt marks a record that cannot be trusted: an undecodable
// header, a wrong magic or version, a checksum mismatch, an undecodable
// payload, a wrong kind, or a payload its owner rejects on validation.
// Recover skips such candidates; every other error stops it.
var ErrCorrupt = errors.New("corrupt record")

// header prefixes every durable record: the feedback log (HMMMFLOG),
// the ingest journal (HMMMILOG) and the store snapshots (HMMMDB, kinds
// model, cmodel and corpus). Gob matches fields by name, so records
// written before the logs carried a Kind decode with an empty one.
type header struct {
	Magic    string
	Version  int
	Kind     string
	Checksum uint32 // IEEE CRC-32 of the gob-encoded payload
}

// EncodeRecord writes one record to w: the gob-encoded header, then the
// gob-encoded payload the header's checksum covers.
func EncodeRecord(w io.Writer, magic string, version int, kind string, payload any) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(payload); err != nil {
		return fmt.Errorf("encoding %s record: %w", magic, err)
	}
	h := header{Magic: magic, Version: version, Kind: kind, Checksum: crc32.ChecksumIEEE(body.Bytes())}
	if err := gob.NewEncoder(w).Encode(h); err != nil {
		return fmt.Errorf("encoding %s header: %w", magic, err)
	}
	_, err := w.Write(body.Bytes())
	return err
}

// decodeRecord verifies a record written by EncodeRecord against the
// expected magic and version and returns its kind and raw payload
// (decode it with DecodePayload). Every failure wraps ErrCorrupt.
func decodeRecord(data []byte, magic string, version int) (kind string, payload []byte, err error) {
	// Decoding from a bytes.Reader (an io.ByteReader) makes gob consume
	// exactly the header message, leaving precisely the payload bytes.
	br := bytes.NewReader(data)
	var h header
	if err := gob.NewDecoder(br).Decode(&h); err != nil {
		return "", nil, fmt.Errorf("%w: bad header: %v", ErrCorrupt, err)
	}
	if h.Magic != magic {
		return "", nil, fmt.Errorf("%w: bad magic %q, want %q", ErrCorrupt, h.Magic, magic)
	}
	if h.Version != version {
		return "", nil, fmt.Errorf("%w: %s version %d, want %d", ErrCorrupt, magic, h.Version, version)
	}
	payload = data[len(data)-br.Len():]
	if crc32.ChecksumIEEE(payload) != h.Checksum {
		return "", nil, fmt.Errorf("%w: %s %s checksum mismatch", ErrCorrupt, magic, h.Kind)
	}
	return h.Kind, payload, nil
}

// ReadRecord is decodeRecord over the file at path, for owners that
// pick the payload type by kind. A read error is returned as is; a
// decode error also names the path.
func ReadRecord(path, magic string, version int) (kind string, payload []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", nil, err
	}
	if kind, payload, err = decodeRecord(data, magic, version); err != nil {
		return "", nil, fmt.Errorf("%s: %w", path, err)
	}
	return kind, payload, nil
}

// ReadPayload is ReadRecord then DecodePayload into out, for owners
// with one payload type.
func ReadPayload(path, magic string, version int, out any) error {
	_, payload, err := ReadRecord(path, magic, version)
	if err == nil {
		err = DecodePayload(payload, out)
	}
	return err
}

// DecodePayload gob-decodes a verified payload into out. A failure wraps
// ErrCorrupt: the checksum matched, so the bytes are what was written,
// but they are not the type the caller expects.
func DecodePayload(payload []byte, out any) error {
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(out); err != nil {
		return fmt.Errorf("%w: decoding payload: %v", ErrCorrupt, err)
	}
	return nil
}

// Recover walks RecoveryCandidates(path) and returns the first candidate
// load accepts, with the number it skipped as corrupt. A missing
// candidate is skipped; one whose error wraps ErrCorrupt is counted and
// skipped; any other error (permissions, a directory in the file's
// place, a failing disk) stops the walk and is returned as is. When no
// candidate exists the error satisfies os.IsNotExist; when every one
// that exists is corrupt it wraps ErrCorrupt. Callers pick the policy.
func Recover(path string, load func(path string) error) (from string, corrupt int, err error) {
	var first error
	for _, cand := range RecoveryCandidates(path) {
		err := load(cand)
		switch {
		case err == nil:
			return cand, corrupt, nil
		case errors.Is(err, os.ErrNotExist):
		case errors.Is(err, ErrCorrupt):
			if first == nil {
				first = err
			}
			corrupt++
		default:
			return "", corrupt, err
		}
	}
	if first != nil {
		return "", corrupt, fmt.Errorf("%s: no recoverable candidate, %d corrupt (first: %w)", path, corrupt, first)
	}
	return "", 0, &os.PathError{Op: "open", Path: path, Err: os.ErrNotExist}
}
