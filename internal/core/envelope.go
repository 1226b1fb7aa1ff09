package core

import (
	"encoding/binary"
	"fmt"
	"io"

	"misusedetect/internal/scorer"
)

// Every cluster-NN-model.bin is an envelope: a small self-describing
// header in front of the backend's own payload encoding (Scorer.Save):
//
//	offset  size  field
//	0       4     magic "MDSC" (misuse-detect scorer)
//	4       2     envelope format version, big endian
//	6       2     backend tag length, big endian
//	8       n     backend tag (UTF-8)
//	8+n     ...   backend payload (typically gob)
//
// decodeModel dispatches on the tag through the backends table, so a
// saved model file names the code that can read it, and a file written
// by an unknown or future backend fails loudly instead of mis-decoding.

// envelopeMagic identifies a model envelope.
const envelopeMagic = "MDSC"

// envelopeVersion is the envelope layout version this build reads and
// writes.
const envelopeVersion = 1

// maxTagLen bounds the backend tag so a corrupted length field cannot
// force a huge read.
const maxTagLen = 128

// encodeModel writes s as an envelope: header with the backend tag, then
// the backend payload. Only a backend of the table is written, so every
// file written can be read back.
func encodeModel(w io.Writer, s scorer.Scorer) error {
	tag := s.Backend()
	if lookupBackend(tag) == nil {
		return fmt.Errorf("encode model: unknown backend %q", tag)
	}
	header := make([]byte, 0, 8+len(tag))
	header = append(header, envelopeMagic...)
	header = binary.BigEndian.AppendUint16(header, envelopeVersion)
	header = binary.BigEndian.AppendUint16(header, uint16(len(tag)))
	header = append(header, tag...)
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("encode model envelope header: %w", err)
	}
	if err := s.Save(w); err != nil {
		return fmt.Errorf("encode %s payload: %w", tag, err)
	}
	return nil
}

// decodeModel reads an envelope written by encodeModel and loads the
// payload with its backend's loader. Corruption, an unsupported
// envelope version, and an unknown backend all fail with distinct,
// descriptive errors.
func decodeModel(r io.Reader) (scorer.Scorer, error) {
	var fixed [8]byte
	if _, err := io.ReadFull(r, fixed[:]); err != nil {
		return nil, fmt.Errorf("decode model: file truncated or corrupted (short envelope header): %w", err)
	}
	if string(fixed[:4]) != envelopeMagic {
		return nil, fmt.Errorf("decode model: bad magic %q, want %q (not a model file, or corrupted)", fixed[:4], envelopeMagic)
	}
	if version := binary.BigEndian.Uint16(fixed[4:6]); version != envelopeVersion {
		return nil, fmt.Errorf("decode model: envelope format version %d, this build reads version %d", version, envelopeVersion)
	}
	tagLen := binary.BigEndian.Uint16(fixed[6:8])
	if tagLen == 0 || tagLen > maxTagLen {
		return nil, fmt.Errorf("decode model: backend tag length %d outside [1,%d] (corrupted header)", tagLen, maxTagLen)
	}
	tag := make([]byte, tagLen)
	if _, err := io.ReadFull(r, tag); err != nil {
		return nil, fmt.Errorf("decode model: file truncated reading backend tag: %w", err)
	}
	b := lookupBackend(string(tag))
	if b == nil {
		return nil, fmt.Errorf("decode model: unknown backend %q (known: %s)", tag, backendTags())
	}
	s, err := b.load(r)
	if err != nil {
		return nil, fmt.Errorf("decode %s payload: %w", tag, err)
	}
	return s, nil
}
