"""The ``powershell.exe`` parameter table, shared by the static
unwrapper (:mod:`repro.core.multilayer`) and the sandbox's child-shell
command (:mod:`repro.runtime.cmdlets`) so both bind a launch alike."""

from typing import Tuple

# Parameters as ``(name, shortest accepted prefix)``: the binder takes
# any case-insensitive prefix of a name that is at least that long
# (paper: ``'-encodedcommand'.StartsWith($param)``).  Two-letter
# aliases such as ``-ep`` are names of their own.
ENCODED_COMMAND = (("encodedcommand", "e"), ("ec", "ec"))
COMMAND = (("command", "c"),)
FILE = (("file", "f"),)
# The parameters that take a value; the value is never the payload.
VALUE_PARAMETERS = (
    ("executionpolicy", "ex"), ("ep", "ep"),
    ("windowstyle", "w"),
    ("configurationname", "config"),
    ("version", "v"),
    ("inputformat", "in"), ("if", "if"),
    ("outputformat", "o"), ("of", "of"),
    ("psconsolefile", "psc"),
    ("workingdirectory", "wo"), ("wd", "wd"),
    ("settingsfile", "settings"),
)


def binds(name: str, parameters: Tuple[Tuple[str, str], ...]) -> bool:
    """Does the ``-name`` token bind one of *parameters*?"""
    lowered = name.lstrip("-").lower()
    return any(
        full.startswith(lowered) and len(lowered) >= len(shortest)
        for full, shortest in parameters
    )
