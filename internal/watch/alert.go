package watch

import (
	"encoding/json"
	"fmt"
	"net/netip"
	"time"
)

// Severity grades an alert.
type Severity int

// Severity levels.
const (
	Info Severity = iota
	Warning
	Critical
)

// String names the severity.
func (s Severity) String() string {
	switch s {
	case Info:
		return "info"
	case Warning:
		return "warning"
	case Critical:
		return "critical"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the severity as its name.
func (s Severity) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// Alert is one typed detector finding. Detectors fill Detector,
// Severity, Community, and Message; the engine stamps the remaining
// fields from the triggering event.
type Alert struct {
	// Seq is the ingest sequence of the triggering event; the global
	// alert order sorts on it.
	Seq      uint64       `json:"seq"`
	Time     time.Time    `json:"time"`
	Detector string       `json:"detector"`
	Severity Severity     `json:"severity"`
	Prefix   netip.Prefix `json:"prefix"`
	PeerAS   uint32       `json:"peer_as"`
	Origin   uint32       `json:"origin_as,omitempty"`
	// Community is the implicated community in presentation form, when
	// one exists.
	Community string `json:"community,omitempty"`
	Source    string `json:"source,omitempty"`
	Message   string `json:"message"`
}

// String renders a one-line log form.
func (a Alert) String() string {
	return fmt.Sprintf("#%d %s [%s] %s: %s", a.Seq, a.Detector, a.Severity, a.Prefix, a.Message)
}
