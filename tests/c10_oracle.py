"""Oracle for the C10 check (``braces.ideal_iff_normal_paragon``).

The function as it was before it took the ideal side from the brace's kept
ideal list: it runs ``is_brace_ideal`` on the subset, and
``is_normal_paragon`` reads and tests the paragon's members again, with its
own lambda and rho arrays (``normal_oracle``), so the verdict does not come
from the report ``is_paragon`` keeps.  Differential tests pit the library
function against it.
"""

from trusskit.braces import brace_ideals, is_brace_ideal, truss_from_brace
from trusskit.heaps import _members
from trusskit.lawcheck import Report
from trusskit.trusses import is_paragon

from normal_oracle import is_normal_paragon


def ideal_iff_normal_paragon(b, s, truss=None):
    """Check both normal-paragon characterisations on one subset.

    (1) s is an ideal  iff  s is a normal paragon of the truss containing the
    identity; (2) s lies in B/I for some ideal I  iff  s is a normal paragon.
    """
    members = _members(s, b.order)
    t = truss if truss is not None else truss_from_brace(b)
    report = Report("ideal vs normal paragon on %s" % (members,))

    ideal_ok, _ = is_brace_ideal(b, members)
    result = is_paragon(t, members)
    # the member list, not the Paragon: normality re-reads and re-tests the set
    normal_ok = result.is_paragon and is_normal_paragon(t, list(result.paragon.members))
    has_identity = b.identity in members
    report.note("ideal=%s normal_paragon=%s contains_identity=%s"
                % (ideal_ok, normal_ok, has_identity))
    ok = ideal_ok == (normal_ok and has_identity)
    report.add("ideal_iff_normal_paragon_with_identity", ok, None if ok else members)

    shifted = b.add.add[list(members), b.add.neg[members[0]]]
    in_quotient = tuple(sorted(int(v) for v in shifted)) in brace_ideals(b)
    report.note("member_of_some_quotient=%s" % in_quotient)
    ok = in_quotient == normal_ok
    report.add("quotient_member_iff_normal_paragon", ok, None if ok else members)
    return report
