#!/usr/bin/env sh
# Run the project-invariant analyzer suite (cmd/neogeolint) over the
# whole module. Exits nonzero when any finding is reported, so both CI
# and the smoke preflight can gate on it. Findings print to stdout in
# file:line:col form.
set -eu
cd "$(dirname "$0")/.."
exec go run ./cmd/neogeolint ./...
