"""Docs drift guards.

``docs/cli.md`` must document every subcommand ``repro.cli`` registers
(this is the check CI runs as its "docs" step), the CLI module
docstring must not drift from the registered command set again, and
the non-standard exit codes each command actually returns must stay
documented where users look for them.
"""

import argparse
import os
import re

from repro.cli import build_parser

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CLI_DOC = os.path.join(REPO_ROOT, "docs", "cli.md")


def _cli_doc_section(doc: str, command: str) -> str:
    marker = f"## `repro {command}"
    assert marker in doc, f"docs/cli.md lacks a section for {command}"
    section = doc.split(marker, 1)[1]
    follow = re.search(r"\n## ", section)
    return section[: follow.start()] if follow else section


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("no subparsers registered")


def registered_subcommands():
    return sorted(_subparsers(build_parser()))


def _long_options(parser):
    return {
        option
        for action in parser._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }


def _named_options(text):
    return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", text))


def test_cli_doc_exists():
    assert os.path.exists(CLI_DOC), "docs/cli.md is missing"


def test_every_subcommand_documented():
    with open(CLI_DOC, "r", encoding="utf-8") as handle:
        doc = handle.read()
    missing = [
        command
        for command in registered_subcommands()
        if f"## `repro {command}" not in doc
    ]
    assert not missing, (
        f"docs/cli.md lacks a '## `repro <cmd>`' section for: {missing}"
    )


def test_documented_long_options_match_the_parser():
    """docs/cli.md names exactly the long options the parser accepts —
    a removed flag cannot linger in the docs — and each subcommand's
    section names all of its own."""
    with open(CLI_DOC, "r", encoding="utf-8") as handle:
        doc = handle.read()
    parser = build_parser()
    subcommands = _subparsers(parser)
    accepted = _long_options(parser).union(
        *(_long_options(sub) for sub in subcommands.values())
    )
    documented = _named_options(doc)
    assert documented == accepted, (
        f"documented only: {sorted(documented - accepted)}; "
        f"undocumented: {sorted(accepted - documented)}"
    )
    for command, sub in subcommands.items():
        section = _cli_doc_section(doc, command)
        missing = sorted(_long_options(sub) - _named_options(section))
        assert not missing, (
            f"docs/cli.md section for 'repro {command}' omits {missing}"
        )


def test_module_docstring_mentions_every_subcommand():
    import repro.cli

    doc = repro.cli.__doc__
    missing = [
        command
        for command in registered_subcommands()
        if f"\n{command} " not in doc and f"\n{command}\n" not in doc
    ]
    assert not missing, (
        f"repro.cli module docstring omits commands: {missing}"
    )


def test_readme_links_docs():
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as f:
        readme = f.read()
    assert "docs/cli.md" in readme
    assert "docs/architecture.md" in readme


def test_exit_codes_documented():
    """Every non-standard exit code stays documented in its section.

    The CLI's error-signalling contract: batch exits 3 when samples
    errored, verify --fail-on-divergent exits 4, trace --check exits 5.
    CI scripts key on these numbers, so docs drift here breaks users
    silently.
    """
    with open(CLI_DOC, "r", encoding="utf-8") as handle:
        doc = handle.read()
    expectations = {
        "batch": "`3` at least one `error` sample",
        "verify": "exit `4` on a `divergent` verdict",
        "trace": "`5` when `--check` found problems",
    }
    for command, sentence in expectations.items():
        section = _cli_doc_section(doc, command)
        assert sentence in section, (
            f"docs/cli.md section for 'repro {command}' no longer "
            f"documents its exit code: expected {sentence!r}"
        )


def test_sandbox_doc_cross_linked():
    """The sandbox-policy doc exists, names every preset, and the
    surfaces that take a policy point at it."""
    sandbox = os.path.join(REPO_ROOT, "docs", "sandbox.md")
    assert os.path.exists(sandbox), "docs/sandbox.md is missing"
    with open(sandbox, encoding="utf-8") as handle:
        sandbox_text = handle.read()
    from repro.policy import PRESET_NAMES

    for preset in PRESET_NAMES:
        assert f"`{preset}`" in sandbox_text, (
            f"docs/sandbox.md does not document preset {preset}"
        )
    assert "repro_policy_denials_total" in sandbox_text
    with open(CLI_DOC, encoding="utf-8") as handle:
        doc = handle.read()
    for command in ("deobfuscate", "batch", "serve", "verify", "behavior"):
        section = _cli_doc_section(doc, command)
        assert "--policy" in section and "sandbox.md" in section, (
            f"docs/cli.md section for 'repro {command}' must document "
            "--policy and link docs/sandbox.md"
        )
    for name in ("architecture.md", "verify.md"):
        with open(os.path.join(REPO_ROOT, "docs", name),
                  encoding="utf-8") as handle:
            assert "sandbox.md" in handle.read(), (
                f"docs/{name} lost its docs/sandbox.md cross-link"
            )


def test_frontend_doc_cross_linked():
    """The front-end doc exists, names every registered language (and
    its aliases), and the surfaces that take ``--language`` point at
    it."""
    frontends = os.path.join(REPO_ROOT, "docs", "frontends.md")
    assert os.path.exists(frontends), "docs/frontends.md is missing"
    with open(frontends, encoding="utf-8") as handle:
        frontends_text = handle.read()
    from repro.frontend import available_frontends

    for frontend in available_frontends():
        assert f"`{frontend.id}`" in frontends_text, (
            f"docs/frontends.md does not document front end "
            f"{frontend.id}"
        )
        for alias in frontend.aliases:
            assert f"`{alias}`" in frontends_text, (
                f"docs/frontends.md omits alias {alias!r} of "
                f"{frontend.id}"
            )
    with open(CLI_DOC, encoding="utf-8") as handle:
        doc = handle.read()
    for command in ("deobfuscate", "batch", "serve", "verify",
                    "languages"):
        section = _cli_doc_section(doc, command)
        assert "frontends.md" in section, (
            f"docs/cli.md section for 'repro {command}' must link "
            "docs/frontends.md"
        )
    for command in ("deobfuscate", "batch", "serve", "verify", "fleet"):
        section = _cli_doc_section(doc, command)
        assert "--language" in section, (
            f"docs/cli.md section for 'repro {command}' must document "
            "--language"
        )
    arch = os.path.join(REPO_ROOT, "docs", "architecture.md")
    with open(arch, encoding="utf-8") as handle:
        assert "frontends.md" in handle.read(), (
            "docs/architecture.md lost its docs/frontends.md cross-link"
        )


def test_observability_doc_cross_linked():
    """The telemetry surfaces stay documented and cross-linked: the
    event-log schema and /statusz sections in observability.md, the
    `repro top` / `repro logs` sections in cli.md, and the journal
    drop counter in service.md."""
    obs = os.path.join(REPO_ROOT, "docs", "observability.md")
    with open(obs, encoding="utf-8") as handle:
        obs_text = handle.read()
    assert "## Structured event log" in obs_text
    assert "## Rolling windows and `/statusz`" in obs_text
    assert "schema_version" in obs_text
    assert "tests/obs/golden/log_events.jsonl" in obs_text
    for name in ("repro top", "repro logs"):
        assert name in obs_text, (
            f"docs/observability.md never mentions '{name}'"
        )
    with open(CLI_DOC, encoding="utf-8") as handle:
        doc = handle.read()
    top = _cli_doc_section(doc, "top")
    assert "--once" in top and "/statusz" in top
    assert "observability.md" in top
    logs = _cli_doc_section(doc, "logs")
    for flag in ("--level", "--logger", "--trace", "--follow"):
        assert flag in logs, (
            f"docs/cli.md 'repro logs' section lost {flag}"
        )
    assert "observability.md" in logs
    for command in ("serve", "fleet"):
        section = _cli_doc_section(doc, command)
        assert "--log-file" in section and "/statusz" in section, (
            f"docs/cli.md 'repro {command}' must document --log-file "
            "and /statusz"
        )
    service = os.path.join(REPO_ROOT, "docs", "service.md")
    with open(service, encoding="utf-8") as handle:
        assert (
            "repro_service_cache_journal_dropped_total"
            in handle.read()
        )


def test_performance_doc_cross_linked():
    """The performance handbook exists and the profiling surfaces
    point at it (and at the architecture hot-path map)."""
    perf = os.path.join(REPO_ROOT, "docs", "performance.md")
    assert os.path.exists(perf), "docs/performance.md is missing"
    with open(CLI_DOC, encoding="utf-8") as handle:
        assert "performance.md" in handle.read()
    obs = os.path.join(REPO_ROOT, "docs", "observability.md")
    with open(obs, encoding="utf-8") as handle:
        assert "performance.md" in handle.read()
    arch = os.path.join(REPO_ROOT, "docs", "architecture.md")
    with open(arch, encoding="utf-8") as handle:
        arch_text = handle.read()
    assert "## Hot paths" in arch_text
    assert "performance.md" in arch_text
    with open(perf, encoding="utf-8") as handle:
        perf_text = handle.read()
    assert "BENCH_pipeline.json" in perf_text
    assert "architecture.md#hot-paths" in perf_text
