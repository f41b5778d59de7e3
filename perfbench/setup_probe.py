"""Time, in a fresh interpreter, importing uplift and building the first
backend, PipelineConfig and PromptLibrary; print the time as JSON.

    python3 perfbench/setup_probe.py SRC_DIR script SCRIPT_JSON
    python3 perfbench/setup_probe.py SRC_DIR http
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import uplift  # noqa: E402
from uplift.agents import PromptLibrary  # noqa: E402
from uplift.backend import HttpBackend, load_script  # noqa: E402


def _unused_transport(endpoint, payload, api_key, timeout):
    raise OSError("the setup probe sends no request")


if sys.argv[2] == "script":
    backend = load_script(sys.argv[3])
else:
    backend = HttpBackend("http://localhost/v1/chat/completions", transport=_unused_transport)
config = uplift.PipelineConfig(mode=uplift.PipelineMode.SYSTEM_MANAGER, backend=backend)
PromptLibrary(config.prompt_dir)
elapsed = time.perf_counter() - start
print(json.dumps({"setup_s": elapsed, "module": uplift.__file__}))
