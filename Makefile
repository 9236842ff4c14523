GO ?= go

.PHONY: build test test-race vet voiceprintvet

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
