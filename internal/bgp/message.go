package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Message type codes (RFC 4271 §4.1).
const (
	MsgTypeOpen         uint8 = 1
	MsgTypeUpdate       uint8 = 2
	MsgTypeNotification uint8 = 3
	MsgTypeKeepalive    uint8 = 4
)

// headerLen is the fixed BGP message header size: 16-byte marker, 2-byte
// length, 1-byte type.
const headerLen = 19

// MaxMessageLen is the RFC 4271 maximum BGP message size.
const MaxMessageLen = 4096

// Message is any decoded BGP message.
type Message interface {
	// Type returns the message type code.
	Type() uint8
	// Encode serializes the full message including the header.
	Encode() ([]byte, error)
}

// Open is a minimal OPEN message (no optional capabilities beyond what the
// simulator needs; the 4-octet-AS capability is implied by the codec).
type Open struct {
	Version  uint8
	ASN      uint32 // encoded as AS_TRANS in the 2-byte field when > 65535
	HoldTime uint16
	RouterID netip.Addr
}

// ASTrans is the 2-octet placeholder ASN for 4-octet AS speakers (RFC 6793).
const ASTrans uint16 = 23456

// Type implements Message.
func (o *Open) Type() uint8 { return MsgTypeOpen }

// Encode implements Message.
func (o *Open) Encode() ([]byte, error) {
	body := make([]byte, 0, 10)
	version := o.Version
	if version == 0 {
		version = 4
	}
	body = append(body, version)
	as2 := uint16(o.ASN)
	if o.ASN > 0xFFFF {
		as2 = ASTrans
	}
	body = binary.BigEndian.AppendUint16(body, as2)
	body = binary.BigEndian.AppendUint16(body, o.HoldTime)
	rid := o.RouterID
	if !rid.IsValid() || !rid.Is4() {
		rid = netip.AddrFrom4([4]byte{0, 0, 0, 0})
	}
	b := rid.As4()
	body = append(body, b[:]...)
	body = append(body, 0) // no optional parameters
	return wrapMessage(MsgTypeOpen, body)
}

// Keepalive is a KEEPALIVE message.
type Keepalive struct{}

// Type implements Message.
func (Keepalive) Type() uint8 { return MsgTypeKeepalive }

// Encode implements Message.
func (Keepalive) Encode() ([]byte, error) { return wrapMessage(MsgTypeKeepalive, nil) }

// Notification is a NOTIFICATION message.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Type implements Message.
func (n *Notification) Type() uint8 { return MsgTypeNotification }

// Encode implements Message.
func (n *Notification) Encode() ([]byte, error) {
	body := append([]byte{n.Code, n.Subcode}, n.Data...)
	return wrapMessage(MsgTypeNotification, body)
}

// Update is an UPDATE message. IPv4 routes ride the classic fields; IPv6
// routes ride MP_REACH/MP_UNREACH inside Attrs.
type Update struct {
	Withdrawn []netip.Prefix
	Attrs     PathAttributes
	NLRI      []netip.Prefix
}

// Type implements Message.
func (u *Update) Type() uint8 { return MsgTypeUpdate }

// AllAnnounced returns IPv4 NLRI plus IPv6 MP_REACH NLRI.
func (u *Update) AllAnnounced() []netip.Prefix {
	out := append([]netip.Prefix(nil), u.NLRI...)
	return append(out, u.Attrs.MPReachNLRI...)
}

// AllWithdrawn returns IPv4 withdrawals plus IPv6 MP_UNREACH NLRI.
func (u *Update) AllWithdrawn() []netip.Prefix {
	out := append([]netip.Prefix(nil), u.Withdrawn...)
	return append(out, u.Attrs.MPUnreachNLRI...)
}

// Encode implements Message.
func (u *Update) Encode() ([]byte, error) {
	for _, p := range u.Withdrawn {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("bgp: IPv6 withdrawal %s must use MP_UNREACH", p)
		}
	}
	for _, p := range u.NLRI {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("bgp: IPv6 NLRI %s must use MP_REACH", p)
		}
	}
	var body []byte
	wd := encodeNLRIList(nil, u.Withdrawn)
	body = binary.BigEndian.AppendUint16(body, uint16(len(wd)))
	body = append(body, wd...)
	attrs := u.Attrs.Encode()
	if len(u.NLRI) == 0 && len(u.Attrs.MPReachNLRI) == 0 && len(u.Withdrawn) == 0 && len(u.Attrs.MPUnreachNLRI) == 0 {
		attrs = nil // pure end-of-rib style empty update
	}
	body = binary.BigEndian.AppendUint16(body, uint16(len(attrs)))
	body = append(body, attrs...)
	body = encodeNLRIList(body, u.NLRI)
	return wrapMessage(MsgTypeUpdate, body)
}

func wrapMessage(typ uint8, body []byte) ([]byte, error) {
	total := headerLen + len(body)
	if total > MaxMessageLen {
		return nil, fmt.Errorf("bgp: message length %d exceeds %d", total, MaxMessageLen)
	}
	out := make([]byte, headerLen, total)
	for i := 0; i < 16; i++ {
		out[i] = 0xFF
	}
	binary.BigEndian.PutUint16(out[16:], uint16(total))
	out[18] = typ
	return append(out, body...), nil
}

// DecodeMessage parses one BGP message from b, which must contain exactly
// one whole message. Everything it returns is freshly allocated.
func DecodeMessage(b []byte) (Message, error) { return DecodeMessageInto(b, new(Update)) }

// DecodeMessageInto is DecodeMessage for a caller that decodes message
// after message and keeps none of them: an UPDATE is decoded into u and
// returned as u itself. u's slices are truncated and refilled, so once
// they have grown to fit a stream's records an UPDATE decodes without
// allocating. Whatever u held before is overwritten, slices included,
// and after an error u holds nothing meaningful. Other message types
// come back fresh and leave u alone.
func DecodeMessageInto(b []byte, u *Update) (Message, error) {
	if len(b) < headerLen {
		return nil, fmt.Errorf("bgp: message shorter than header (%d bytes)", len(b))
	}
	for i := 0; i < 16; i++ {
		if b[i] != 0xFF {
			return nil, fmt.Errorf("bgp: bad marker byte at %d", i)
		}
	}
	length := int(binary.BigEndian.Uint16(b[16:]))
	if length < headerLen || length > MaxMessageLen {
		return nil, fmt.Errorf("bgp: bad message length %d", length)
	}
	if len(b) < length {
		return nil, fmt.Errorf("bgp: message truncated (header says %d, have %d)", length, len(b))
	}
	typ := b[18]
	body := b[headerLen:length]
	switch typ {
	case MsgTypeOpen:
		return decodeOpen(body)
	case MsgTypeUpdate:
		if err := u.decode(body); err != nil {
			return nil, err
		}
		return u, nil
	case MsgTypeKeepalive:
		if len(body) != 0 {
			return nil, fmt.Errorf("bgp: KEEPALIVE with %d body bytes", len(body))
		}
		return Keepalive{}, nil
	case MsgTypeNotification:
		if len(body) < 2 {
			return nil, fmt.Errorf("bgp: NOTIFICATION too short")
		}
		return &Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
	default:
		return nil, fmt.Errorf("bgp: unknown message type %d", typ)
	}
}

func decodeOpen(body []byte) (*Open, error) {
	if len(body) < 10 {
		return nil, fmt.Errorf("bgp: OPEN too short")
	}
	return &Open{
		Version:  body[0],
		ASN:      uint32(binary.BigEndian.Uint16(body[1:])),
		HoldTime: binary.BigEndian.Uint16(body[3:]),
		RouterID: netip.AddrFrom4([4]byte(body[5:9])),
	}, nil
}

// decode is the one UPDATE body decoder: it refills u in place.
func (u *Update) decode(body []byte) error {
	if len(body) < 4 {
		return fmt.Errorf("bgp: UPDATE too short")
	}
	wdLen := int(binary.BigEndian.Uint16(body))
	if len(body) < 2+wdLen+2 {
		return fmt.Errorf("bgp: UPDATE withdrawn block truncated")
	}
	var err error
	if u.Withdrawn, err = appendNLRIList(u.Withdrawn[:0], body[2:2+wdLen], false); err != nil {
		return err
	}
	attrLenOff := 2 + wdLen
	attrLen := int(binary.BigEndian.Uint16(body[attrLenOff:]))
	attrOff := attrLenOff + 2
	if len(body) < attrOff+attrLen {
		return fmt.Errorf("bgp: UPDATE attribute block truncated")
	}
	if err := u.Attrs.decode(body[attrOff : attrOff+attrLen]); err != nil {
		return err
	}
	u.NLRI, err = appendNLRIList(u.NLRI[:0], body[attrOff+attrLen:], false)
	return err
}
