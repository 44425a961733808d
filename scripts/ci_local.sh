#!/usr/bin/env bash
# Run the steps of the tier-1 workflow that follow "Install" on this
# checkout, offline, each under `bash -eo pipefail` (the workflow's
# `shell: bash`).
#
# Usage, from anywhere:
#
#     scripts/ci_local.sh
#
# A temporary `birange` wrapper on PATH stands in for the installed console
# script: it runs `python3 -m birange.cli` with this checkout's src on
# PYTHONPATH, so nothing is installed.  Prints PASS or FAIL with the exit
# code per step and exits 1 if any step failed.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/bin" "$work/steps" "$work/runner_temp"
cat > "$work/bin/birange" <<EOF
#!/bin/sh
PYTHONPATH="$root/src\${PYTHONPATH:+:\$PYTHONPATH}" exec python3 -m birange.cli "\$@"
EOF
chmod +x "$work/bin/birange"

# Write each step after "Install" that has a `run:` to steps/NN.sh, with its
# name in steps/NN.name.  The parser knows only what the workflow uses:
# `- name:` items, one-line `run:` values and `run: |` blocks.
python3 - "$root/.github/workflows/tier1.yml" "$work/steps" <<'EOF'
import sys
from pathlib import Path

lines = Path(sys.argv[1]).read_text().splitlines()
out = Path(sys.argv[2])
steps, step, after_install = [], None, False
i = 0
while i < len(lines):
    line = lines[i]
    text = line.strip()
    indent = len(line) - len(line.lstrip())
    if text.startswith("- "):
        step = {}
        steps.append(step)
        text = text[2:]
        indent += 2
    if step is not None and text.startswith("name:"):
        step["name"] = text[5:].strip()
    elif step is not None and text.startswith("run:"):
        value = text[4:].strip()
        if value == "|":
            body = []
            i += 1
            while i < len(lines) and (not lines[i].strip()
                                      or len(lines[i]) - len(lines[i].lstrip()) > indent):
                body.append(lines[i])
                i += 1
            cut = min(len(b) - len(b.lstrip()) for b in body if b.strip())
            step["run"] = "\n".join(b[cut:] for b in body).strip("\n") + "\n"
            continue
        step["run"] = value + "\n"
    i += 1
n = 0
for step in steps:
    if step.get("name") == "Install":
        after_install = True
    elif after_install and "run" in step:
        n += 1
        (out / f"{n:02d}.name").write_text(step.get("name", f"step {n}"))
        (out / f"{n:02d}.sh").write_text(step["run"])
if not after_install:
    sys.exit(f"no step named Install in {sys.argv[1]}")
EOF

export PATH=$work/bin:$PATH
export RUNNER_TEMP=$work/runner_temp
export OPENBLAS_NUM_THREADS=1

failed=0
for script in "$work"/steps/*.sh; do
    name=$(cat "${script%.sh}.name")
    code=0
    (cd "$root" && bash -eo pipefail "$script") || code=$?
    if ((code == 0)); then
        echo "PASS  $name"
    else
        echo "FAIL  $name (exit $code)"
        failed=1
    fi
done
exit $failed
