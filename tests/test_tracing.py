"""The benchmark tracer (``perfbench/tracing.py``) rebinds functions of the
package by name; a rename in ``src/`` that it cannot follow fails here."""

import pathlib


def test_tracer_rebinds_and_restores_every_call_site(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1]))
    from perfbench import tracing

    sites = [(owner, attr) for owner, attr, _ in tracing._replacements(tracing.Tracer())]
    originals = [owner.__dict__[attr] for owner, attr in sites]
    assert sites
    with tracing.install(tracing.Tracer()):
        assert all(owner.__dict__[attr] is not orig for (owner, attr), orig in zip(sites, originals))
    assert all(owner.__dict__[attr] is orig for (owner, attr), orig in zip(sites, originals))
