"""Unit tests for the profile validator in tools/check_profile.py."""

import importlib.util
import json
from pathlib import Path

from repro.obs.prof import PROFILE_SCHEMA

REPO_ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location(
    "check_profile", REPO_ROOT / "tools" / "check_profile.py"
)
check_tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_tool)


def _profile_doc() -> dict:
    stacks = [
        [["svc", "hot"], ["a.py:f"], 6, 0],
        [["svc", "cold"], ["b.py:g"], 2, 0],
        [[], ["c.py:h"], 2, 0],
        [[], ["threading.py:wait"], 10, 1],
    ]
    return {
        "schema": PROFILE_SCHEMA,
        "kind": "cpu-profile",
        "mode": "wall",
        "clock": "thread",
        "interval_ms": 5.0,
        "duration_s": 1.0,
        "samples": sum(entry[2] for entry in stacks),
        "stacks": stacks,
    }


def test_check_tool_validates_profiles(tmp_path, capsys):
    good = tmp_path / "profile.json"
    good.write_text(json.dumps(_profile_doc()))
    assert check_tool.main(["--validate", str(good)]) == 0
    assert "profile valid" in capsys.readouterr().out

    assert (
        check_tool.main(
            ["--validate", str(good), "--min-span-fraction", "0.95"]
        )
        == 1
    )
    assert "span attribution" in capsys.readouterr().err

    torn = tmp_path / "torn.json"
    torn.write_text("{nope")
    assert check_tool.main(["--validate", str(torn)]) == 1
