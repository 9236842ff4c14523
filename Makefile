GO ?= go

.PHONY: build test test-race vet vet-escape voiceprintvet

build:
	$(GO) build ./...

# Mirror CI's race/non-race split: every package once under the race
# detector (including the full chaos suite and the scorecard), then the
# plain full run that covers the 3-seed matrices at full speed.
test: test-race
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# Build the repo's invariant multichecker (see DESIGN.md §8 and §12).
voiceprintvet:
	$(GO) build -o bin/voiceprintvet ./cmd/voiceprintvet

# Run standard vet plus the voiceprintvet analyzer suite over every
# package — the same gate CI blocks on.
vet: voiceprintvet
	$(GO) vet ./...
	$(CURDIR)/bin/voiceprintvet ./...

# Escape-budget gate (DESIGN.md §12): rebuild with -gcflags=-m=2 and
# fail if any voiceprintvet:noescape function contains a heap
# allocation site.
vet-escape: voiceprintvet
	$(CURDIR)/bin/voiceprintvet escape ./...
