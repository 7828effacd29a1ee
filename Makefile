# Developer entry points. Everything here is plain go tooling — the module
# is stdlib-only and every target works offline.

GO ?= go

.PHONY: all build test race lint allocguard clean

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

lint:
	$(GO) run ./cmd/lintlocind ./...
	$(GO) run ./cmd/allocguard -check ./...

# allocguard regenerates the //lint:zeroalloc guard tests
# (allocguard_gen_test.go in each annotated package) after annotations
# change; `make lint` verifies they are current.
allocguard:
	$(GO) run ./cmd/allocguard ./...

clean:
	$(GO) clean ./...
