"""Parallel-diffusion chip firing: simulation, orientation rules, and counting."""

from pardiff.counting import (
    AsymptoticModel,
    CountLedger,
    alternating_count,
    characteristic_roots,
    conjecture_recurrence_check,
    contract_agreeing,
    count_T_direct,
    count_T_recurrence,
    count_T_summation,
    count_configs_on_orientation,
    sever_at_flats,
    stage,
    vertex_multiplier,
)
from pardiff.engine import (
    PeriodReport,
    SequenceTrace,
    detect_period,
    fire_step,
    induced_orientation,
    is_inside_period,
    run_sequence,
)
from pardiff.graphs import (
    Configuration,
    PathGraph,
    SimpleGraph,
    canonicalize,
    config_from_string,
    config_to_string,
    parse_graph,
    render_graph,
    shift,
)
from pardiff.oracle import (
    OracleResult,
    count_p2_configurations,
    count_p2_sequence,
    enumerate_p2_configurations,
    enumerate_p2_on_bridge_graph,
    orientations_realized,
)
from pardiff.orientations import (
    ForbiddenPatternReport,
    check_p2_orientation,
    count_p2_orientations_recurrence,
    enumerate_p2_orientations,
    witness_configuration,
)

__version__ = "0.1.0"
