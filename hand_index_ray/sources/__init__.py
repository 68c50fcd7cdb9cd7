"""Deterministic synthetic sources (FIXTURES.md) and pruned readers."""


def expand_paths(paths, what: str, *, glob: bool = True) -> "list[str]":
    """A path, a glob pattern or a list of either → the paths, each
    pattern's matches sorted. ``what`` names the files in the error
    raised when nothing matches."""
    import glob as _glob
    import os

    if isinstance(paths, (str, os.PathLike)):
        paths = [str(paths)]
    out: list[str] = []
    for p in map(str, paths):
        if glob and any(ch in p for ch in "*?["):
            out.extend(sorted(_glob.glob(p, recursive=True)))
        else:
            out.append(p)
    if not out:
        raise FileNotFoundError(f"no {what} match {paths!r}")
    return out
