package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime/debug"
	"runtime/pprof"
	"time"
)

// WriteBundle writes a one-shot diagnostics snapshot of the live server as
// a tar.gz stream: health, metrics, the flight-recorder ring, health-rule
// states, an audit pass, recent trace spans, the release ledger tail,
// goroutine and heap profiles, and build info — everything a bug report
// against a live daemon needs, in one artifact. Entries for disabled
// subsystems (no recorder, no tracer, no journal) are omitted; an entry
// whose renderer fails ships its error text instead, so one broken
// subsystem never blocks the rest of the bundle.
//
// The snapshot is assembled through the same read paths the
// individual endpoints use, so taking a bundle under concurrent ingest is
// safe and observe-only.
func (s *Server) WriteBundle(w io.Writer) error {
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	now := time.Now()
	add := func(name string, fill func(io.Writer) error) error {
		var buf bytes.Buffer
		if err := fill(&buf); err != nil {
			buf.Reset()
			fmt.Fprintf(&buf, "error: %v\n", err)
		}
		hdr := &tar.Header{Name: name, Mode: 0o644, Size: int64(buf.Len()), ModTime: now}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		_, err := tw.Write(buf.Bytes())
		return err
	}
	asJSON := func(v func() (interface{}, error)) func(io.Writer) error {
		return func(w io.Writer) error {
			body, err := v()
			if err != nil {
				return err
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(body)
		}
	}

	entries := []struct {
		name string
		fill func(io.Writer) error
	}{
		{"healthz.json", asJSON(func() (interface{}, error) {
			resp, _ := s.healthSnapshot()
			return resp, nil
		})},
		{"metrics.prom", func(w io.Writer) error {
			s.collect()
			return s.reg.WritePrometheus(w)
		}},
		{"audit.json", asJSON(func() (interface{}, error) {
			return s.audit(s.release())
		})},
		{"buildinfo.txt", func(w io.Writer) error {
			info, ok := debug.ReadBuildInfo()
			if !ok {
				return errors.New("no build info embedded in binary")
			}
			_, err := io.WriteString(w, info.String())
			return err
		}},
		{"goroutines.txt", func(w io.Writer) error {
			return pprof.Lookup("goroutine").WriteTo(w, 1)
		}},
		{"heap.pprof", func(w io.Writer) error {
			return pprof.Lookup("heap").WriteTo(w, 0)
		}},
	}
	if s.rec != nil {
		entries = append(entries, struct {
			name string
			fill func(io.Writer) error
		}{"history.json", asJSON(func() (interface{}, error) {
			return s.history(0), nil
		})})
	}
	if s.wd != nil {
		entries = append(entries, struct {
			name string
			fill func(io.Writer) error
		}{"health_rules.json", asJSON(func() (interface{}, error) {
			overall, rules := s.wd.Status()
			return healthRulesResponse{Status: overall.String(), Rules: rules}, nil
		})})
	}
	if s.tr != nil {
		entries = append(entries, struct {
			name string
			fill func(io.Writer) error
		}{"trace.json", func(w io.Writer) error {
			return s.tr.WriteChromeTrace(w, 0)
		}})
	}
	if s.jr != nil {
		entries = append(entries, struct {
			name string
			fill func(io.Writer) error
		}{"journal.json", asJSON(func() (interface{}, error) {
			return s.events(0), nil
		})})
	}

	for _, e := range entries {
		if err := add(e.name, e.fill); err != nil {
			return err
		}
	}
	if err := tw.Close(); err != nil {
		return err
	}
	return gz.Close()
}

func (s *Server) handleBundle(w http.ResponseWriter, r *http.Request) {
	h := w.Header()
	h.Set("Content-Type", "application/gzip")
	h.Set("Content-Disposition", `attachment; filename="condense-bundle.tar.gz"`)
	// The bundle streams straight to the client; a mid-stream failure
	// reaches them as a truncated (and therefore invalid) gzip stream,
	// which every unpacker rejects loudly.
	_ = s.WriteBundle(w)
}
