package service

import (
	"context"
	"log/slog"
)

// discardHandler drops every record. It stands in for a nil logger so
// call sites never nil-check (slog.DiscardHandler exists upstream but
// only from Go 1.24; the module targets 1.22).
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (d discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return d }
func (d discardHandler) WithGroup(string) slog.Handler           { return d }
