package repro.perfbench

import repro.core.AlpcConfig
import repro.gnn.GeniePathEncoder
import repro.linkpred.{GnnTraining, LinkPredData}
import repro.nn._
import scala.util.Random

/** Replays L_pred-only training epochs of ALPC's encoder and pair head, one
  * span per step: encoder forward, pair-head forward with its loss, tape
  * backward and the Adam update. This splits an epoch the way `Alpc.fit`
  * runs it, without instrumenting the trainer itself.
  */
object EpochReplay {

  val Steps: Seq[String] = Seq("gnn.encoder_fwd", "nn.pair_head_fwd", "nn.backward", "nn.adam")

  def run(data: LinkPredData, cfg: AlpcConfig, epochs: Int, tr: Tracer): Unit = {
    val rng = new Random(cfg.seed)
    val feats = Tensor.fromRows(data.features.toIndexedSeq)
    val enc = new GeniePathEncoder(feats.cols, cfg.dim, cfg.layers, cfg.k, rng)
    val head = new Mlp(Seq(GnnTraining.pairInputDim(enc.outDim) + 4, cfg.dim, 1), rng, "replay.head")
    val opt = new Adam(enc.params ++ head.params, cfg.lr)
    val sf = GnnTraining.structFeatures(data.trainGraph) _
    val pairs = data.trainPairs
    val us = pairs.map(_._1)
    val vs = pairs.map(_._2)
    val labels = data.trainLabels
    val struct = Tensor.fromRows(pairs.toIndexedSeq.map { case (u, v) => sf(u, v) })
    (0 until epochs).foreach { e =>
      tr.counted("replay.epoch", (_: Unit) => Map("pairs" -> pairs.length.toDouble)) {
        implicit val tape: Tape = new Tape
        val z = tr.span(Steps(0))(enc.forward(feats, data.trainGraph, new Random(cfg.seed + e)))
        val loss = tr.span(Steps(1)) {
          val in = Ad.concatCols(GnnTraining.pairInput(z, us, vs), Ad.const(struct))
          Ad.bceWithLogits(head.forward(in), labels)
        }
        tr.span(Steps(2)) { opt.zeroGrad(); tape.backward(loss) }
        tr.span(Steps(3))(opt.step())
      }
    }
  }
}
