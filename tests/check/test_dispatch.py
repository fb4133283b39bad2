"""Every generated op has exactly one handler, and every handler runs.

The runner dispatches through one name -> handler table collected from
the op-family modules; the generator's profile tables are the only
source of op names.  Both directions are checked so a new op cannot be
generated without a handler, and a handler cannot outlive its op.
"""

from repro.check import generator, ops_array, ops_cluster, ops_migrate, \
    ops_query
from repro.check.runner import HANDLERS

FAMILIES = (ops_array, ops_query, ops_migrate, ops_cluster)

GENERATED = {name for table in generator._PROFILE_TABLES.values()
             for name, _, _ in table}


def test_every_generated_op_has_exactly_one_handler():
    for name in GENERATED:
        owners = [f.__name__ for f in FAMILIES if name in f.HANDLERS]
        assert len(owners) == 1, (name, owners)


def test_dispatch_table_is_the_union_of_the_families():
    assert sum(len(f.HANDLERS) for f in FAMILIES) == len(HANDLERS)
    for family in FAMILIES:
        for name, handler in family.HANDLERS.items():
            assert HANDLERS[name] is handler


def test_every_handler_is_drawn_by_a_profile():
    assert set(HANDLERS) == GENERATED
    drawn = {HANDLERS[name] for name in GENERATED}
    assert drawn == set(HANDLERS.values())
