"""Certified output-discrepancy bounds between ReLU networks.

Builds a merged difference network for a pair of feedforward networks,
bounds its output reachable set (interval propagation, uniform input
splitting, or exact star sets), and applies the certified bound to
safety verification through the compressed network.
"""

from .bisim import ErrorBound, bisim_error_lower_mc, bisim_error_upper, reach
from .errors import (DegenerateLPError, MergePreconditionError, NumericError,
                     ParseError, ResourceLimitError, ShapeError,
                     UnsupportedShapeError)
from .formats import (NNetMeta, parse_json_net, parse_nnet, parse_problem,
                      write_json_net, write_nnet)
from .interval import BoxBatch, reach_box_split, split_box
from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, lp_feasible, lp_max
from .merge import merge
from .network import IDENTITY, RELU, Box, Layer, Network, random_network
from .norms import L2, LINF, dual_norm, sup_norm_box
from .safety import (SAFE, UNCERTAIN, UNSAFE, BisimReport, LinearSpec,
                     Verdict, inflate_spec, report_csv, report_table, verify,
                     verify_via_compressed)
from .star import Star, StarSet, reach_stars, star_sup_norm

__version__ = "0.1.0"
