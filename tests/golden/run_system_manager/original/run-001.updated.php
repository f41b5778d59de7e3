<?php echo $this->Html->link('Back to search', ['action' => 'search']); ?>
<h2><?php echo h($variant['Variant']['name']); ?></h2>
<table class="quotes">
<?php foreach ($quotes as $quote): ?>
  <tr>
    <td><?php echo h($quote['Quote']['text']); ?></td>
    <td><?php echo $this->Time->nice($quote['Quote']['created']); ?></td>
  </tr>
<?php endforeach; ?>
</table>
<?php $first = $quotes->first(); ?>
<p class="first"><?php echo h($first['Quote']['text']); ?></p>
<?php echo $this->Flash->render(); ?>
