package repro.linkpred

import repro.gnn._
import repro.graph.EntityGraph
import repro.nn._
import repro.world.EntityWorld
import scala.util.Random

/** Shared bits of every learned link predictor: the one full-batch Adam
  * training loop, the frozen inference embedding and the pair-head input.
  */
object GnnTraining {

  /** Trains `params` with Adam for `epochs` full-batch steps; `epochLoss(e)`
    * builds epoch e's scalar loss on that epoch's tape.
    */
  def fit(params: Seq[Param], lr: Double, epochs: Int)(epochLoss: Int => Tape => Node): Unit = {
    val opt = new Adam(params, lr)
    var e = 0
    while (e < epochs) {
      val tape = new Tape
      val loss = epochLoss(e)(tape)
      opt.zeroGrad(); tape.backward(loss); opt.step()
      e += 1
    }
  }

  /** Frozen inference embedding: the mean of one encoder forward per seed. */
  def embed(enc: GraphEncoder, feats: Tensor, g: EntityGraph, seeds: Seq[Long]): Tensor = {
    val samples = seeds.map(s => enc.forward(feats, g, new Random(s))(new Tape).v)
    val acc = samples.head.copy()
    samples.tail.foreach(acc.addInPlace)
    acc.scaleInPlace(1.0 / samples.length)
    acc
  }

  /** Pair-head input [z_u ‖ z_v ‖ z_u∘z_v]: the element-wise interaction term
    * lets the scoring MLP express similarity directly instead of having to
    * learn it from the raw concat — essential for convergence at our epoch
    * budgets. Still the "neural network g(·)" of the paper's eq. 2.
    */
  def pairInput(z: Node, us: Array[Int], vs: Array[Int])(implicit t: Tape): Node = {
    val zu = Ad.gatherRows(z, us)
    val zv = Ad.gatherRows(z, vs)
    Ad.concatCols(Ad.concatCols(zu, zv), Ad.hadamard(zu, zv))
  }

  /** Width of `pairInput` given embedding width `d`. */
  def pairInputDim(d: Int): Int = 3 * d

  /** `pairInput` followed by the pairs' structural features, when given. */
  def headInput(z: Node, us: Array[Int], vs: Array[Int], struct: Option[Tensor])(implicit t: Tape): Node =
    struct.fold(pairInput(z, us, vs))(s => Ad.concatCols(pairInput(z, us, vs), Ad.const(s)))

  /** The pair-head input of a scoring batch over frozen embeddings `z`
    * (+ the pairs' structural features under `sf`, when given).
    */
  def scoringInput(z: Tensor, sf: Option[(Int, Int) => Array[Double]]): Array[(Int, Int)] => Tape => Node =
    pairs => implicit t => headInput(Ad.const(z), pairs.map(_._1), pairs.map(_._2), sf.map(pairRows(pairs, structDim)))

  /** Stacks `f(u, v)` of each pair into a pairs × width tensor. */
  def pairRows(pairs: Array[(Int, Int)], width: Int)(f: (Int, Int) => Array[Double]): Tensor = {
    val out = Tensor.zeros(pairs.length, width)
    var i = 0
    while (i < pairs.length) {
      System.arraycopy(f(pairs(i)._1, pairs(i)._2), 0, out.data, i * width, width)
      i += 1
    }
    out
  }

  /** Width of `structFeatures`. */
  val structDim: Int = 4

  /** log1p-squashed structural features of a pair on the train graph. */
  def structFeatures(g: EntityGraph)(u: Int, v: Int): Array[Double] = Array(
    math.log1p(g.commonNeighbors(u, v).toDouble),
    math.log1p(g.adamicAdar(u, v)),
    g.jaccard(u, v),
    math.log1p(g.degree(u).toDouble * g.degree(v)),
  )
}

/** An encoder plus an MLP pair head over `pairInput` (‖ the pair's structural
  * features when `withStruct`), trained on the BCE prediction loss alone.
  */
class EncoderLP(val name: String, headName: String, dim: Int, epochs: Int, lr: Double, seed: Long,
                withStruct: Boolean = false)(encoder: (Int, Random) => GraphEncoder) extends LinkPredictor {
  def fit(data: LinkPredData): LinkScorer = {
    val rng = new Random(seed)
    val feats = Tensor.fromRows(data.features.toIndexedSeq)
    val enc = encoder(feats.cols, rng)
    val sf = if (withStruct) Some(GnnTraining.structFeatures(data.trainGraph) _) else None
    val structWidth = if (withStruct) GnnTraining.structDim else 0
    val head = new Mlp(Seq(GnnTraining.pairInputDim(enc.outDim) + structWidth, dim, 1), rng, headName)
    val (us, vs) = data.trainPairs.unzip
    val labels = data.trainLabels
    val struct = sf.map(GnnTraining.pairRows(data.trainPairs, structWidth))
    GnnTraining.fit(enc.params ++ head.params, lr, epochs) { e => implicit tape =>
      val z = enc.forward(feats, data.trainGraph, new Random(seed + e))
      Ad.bceWithLogits(head.forward(GnnTraining.headInput(z, us, vs, struct)), labels)
    }
    val z = GnnTraining.embed(enc, feats, data.trainGraph, Seq(seed - 1))
    new MlpScorer(head, GnnTraining.scoringInput(z, sf))
  }
}

/** GeniePath link predictor — the paper's backbone trained with only the BCE
  * prediction loss (eq. 2); also the encoder ALPC builds on.
  */
final class GeniePathLP(dim: Int = 32, layers: Int = 2, k: Int = 8,
                        epochs: Int = 40, lr: Double = 2e-2, seed: Long = 71L)
  extends EncoderLP("Geniepath", "gp.head", dim, epochs, lr, seed)(new GeniePathEncoder(_, dim, layers, k, _))

/** VGAE (Kipf & Welling, 2016): graph-conv encoder + inner-product decoder,
  * trained on edge reconstruction. We use the deterministic autoencoder
  * variant (no reparameterisation) — the KL term is irrelevant to ranking at
  * this scale and the decoder/objective are unchanged.
  */
final class Vgae(dim: Int = 32, layers: Int = 2, k: Int = 8,
                 epochs: Int = 40, lr: Double = 2e-2, seed: Long = 73L) extends LinkPredictor {
  val name = "VGAE"
  def fit(data: LinkPredData): LinkScorer = {
    val rng = new Random(seed)
    val feats = Tensor.fromRows(data.features.toIndexedSeq)
    val enc = new MeanSageEncoder(feats.cols, dim, layers, k, rng, finalAct = "linear")
    val (us, vs) = data.trainPairs.unzip
    val labels = data.trainLabels
    GnnTraining.fit(enc.params, lr, epochs) { e => implicit tape =>
      val z = enc.forward(feats, data.trainGraph, new Random(seed + e))
      Ad.bceWithLogits(Ad.rowDot(Ad.gatherRows(z, us), Ad.gatherRows(z, vs)), labels)
    }
    val z = GnnTraining.embed(enc, feats, data.trainGraph, Seq(seed - 1))
    new EmbeddingScorer(Array.tabulate(z.rows)(z.row), 1.0, 0.0)
  }
}

/** CompGCN (Vashishth et al., 2019) over the two candidate-edge relation
  * types (co-occurrence / semantic), `mult` composition, MLP pair head.
  */
final class CompGcnLP(dim: Int = 32, layers: Int = 2, k: Int = 8,
                      epochs: Int = 40, lr: Double = 2e-2, seed: Long = 79L)
  extends EncoderLP("CompGCN", "cgcn.head", dim, epochs, lr, seed)(
    new CompGcnEncoder(_, dim, layers, k, nRels = 2, _))

/** PaGNN (Yang et al., ECML-PKDD 2021) — reduced faithful variant: a sampled
  * GNN encoder plus an *interactive* pair head that sees the element-wise
  * interaction z_u∘z_v and pairwise structural signals (the broadcast/
  * aggregate interaction of the full model collapsed into pair features).
  */
final class PaGnn(dim: Int = 32, layers: Int = 2, k: Int = 8,
                  epochs: Int = 40, lr: Double = 2e-2, seed: Long = 83L)
  extends EncoderLP("PaGNN", "pagnn.head", dim, epochs, lr, seed, withStruct = true)(
    new MeanSageEncoder(_, dim, layers, k, _))

/** SEAL (Zhang & Chen, NeurIPS 2018) — reduced faithful variant: instead of
  * extracting an enclosing subgraph per link and running a DGCNN, we feed the
  * DRNL-motivated structural descriptors of the (1-hop) enclosing subgraph
  * (CN, AA, Jaccard, preferential attachment) together with raw feature
  * similarities to an MLP. Captures SEAL's "structure around the pair"
  * signal at a fraction of the cost.
  */
final class Seal(hidden: Int = 16, epochs: Int = 200, lr: Double = 2e-2, seed: Long = 89L) extends LinkPredictor {
  val name = "SEAL"

  private def pairFeatures(data: LinkPredData)(u: Int, v: Int): Array[Double] =
    GnnTraining.structFeatures(data.trainGraph)(u, v) ++ Array(
      EntityWorld.cosine(data.featSe(u), data.featSe(v)),
      EntityWorld.cosine(data.featCo(u), data.featCo(v)),
    )

  def fit(data: LinkPredData): LinkScorer = {
    val rng = new Random(seed)
    val pf = pairFeatures(data) _
    val width = GnnTraining.structDim + 2
    val head = new Mlp(Seq(width, hidden, 1), rng, "seal")
    val x = GnnTraining.pairRows(data.trainPairs, width)(pf)
    val labels = data.trainLabels
    GnnTraining.fit(head.params, lr, epochs) { _ => implicit tape =>
      Ad.bceWithLogits(head.forward(Ad.const(x)), labels)
    }
    new MlpScorer(head, pairs => implicit t => Ad.const(GnnTraining.pairRows(pairs, width)(pf)))
  }
}
