import pytest
from hypothesis import settings

from hrlab import bilinear

settings.register_profile("suite", max_examples=50, deadline=None, derandomize=True)
settings.load_profile("suite")


class Routes(list):
    """The calls into bilinear's routes, in order: ("proposal", n) for
    _rounded_congruence, ("verdict", n, certified) for _dominant_inertia,
    ("kernel", n) for _congruence and ("bound", n) for a family sample that
    _bounded_inertia certifies."""

    def per_matrix(self) -> list[tuple[int, str]]:
        """(n, route) for each matrix signed: "bound" when its family's t = 0
        certificate covered it, "reused" when it certified on a proposal
        handed in, "fresh" when on its own, "kernel" when it tried none, and
        "fallback" when the kernel signed it after a try."""
        out, tried = [], False
        for k, call in enumerate(self):
            if call[0] == "kernel":
                out.append((call[1], "fallback" if tried else "kernel"))
            elif call[0] == "bound":
                out.append((call[1], "bound"))
            elif call[0] == "verdict" and call[2]:
                out.append((call[1], "fresh" if k and self[k - 1][0] == "proposal" else "reused"))
            else:
                tried = True
                continue
            tried = False
        return out


@pytest.fixture
def routes(monkeypatch):
    calls = Routes()
    proposal, verdict, kernel = bilinear._rounded_congruence, bilinear._dominant_inertia, bilinear._congruence
    bound = bilinear._bounded_inertia

    def proposing(rows):
        calls.append(("proposal", len(rows)))
        return proposal(rows)

    def checking(rows, order, P):
        out = verdict(rows, order, P)
        calls.append(("verdict", len(rows), out is not None))
        return out

    def eliminating(rows):
        calls.append(("kernel", len(rows)))
        return kernel(rows)

    def bounding(certificate, p, q):
        out = bound(certificate, p, q)
        if out is not None:
            calls.append(("bound", sum(out)))
        return out

    monkeypatch.setattr(bilinear, "_rounded_congruence", proposing)
    monkeypatch.setattr(bilinear, "_dominant_inertia", checking)
    monkeypatch.setattr(bilinear, "_congruence", eliminating)
    monkeypatch.setattr(bilinear, "_bounded_inertia", bounding)
    return calls
