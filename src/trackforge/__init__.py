"""trackforge: featured indoor motion trajectories from smartphone sensor logs.

Pipeline: TSL log parsing -> adaptive step detection -> gait/stride lookup ->
fused heading estimation -> dead-reckoned trajectory -> barometer floor
segmentation + WiFi MAC-set floor clustering -> turning-point chain graphs.
"""

__version__ = "0.1.0"

from .logio import SensorLog, SensorSample, SensorStream, WifiObservation, parse_log, parse_log_file, serialize_log
from .stepdetect import Step, StepConfig, detect_steps, magnitude_series
from .stride import Gait, GaitModel, classify_gait, stride_length, train_gait_model
from .heading import HeadingConfig, motion_direction, tilt_compensated_yaw, track_attitude
from .pdr import PdrTrajectory, integrate, pdr_update
from .floors import FloorConfig, TrajectorySegment, cluster_floors, dbscan_1d, jaccard, segment_trajectory
from .featurize import ChainGraph, TurningConfig, build_chain_graph, detect_turning_points, featurize_segment_report
from .synth import GroundTruth, WalkScript, default_corpus_scripts, generate
from .evalkit import score_corpus, score_floors, score_turnings, sweep
from .config import PipelineConfig, load_config
from .pipeline import run_pipeline
